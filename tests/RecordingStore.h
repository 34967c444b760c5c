//===----------------------------------------------------------------------===//
///
/// \file
/// A test summary exchange: a TieredSummaryStore that also keeps every
/// summary published through it, so a test can save the store and then
/// probe the snapshot (or a store attached to it) key by key.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_TESTS_RECORDINGSTORE_H
#define DYNSUM_TESTS_RECORDINGSTORE_H

#include "engine/TieredStore.h"

#include <vector>

namespace dynsum {
namespace testing {

class RecordingStore : public analysis::SummaryExchange {
public:
  /// One published summary, in the publishing graph's node ids.
  struct Entry {
    pag::NodeId Node = 0;
    std::vector<uint32_t> Fields;
    analysis::RsmState State = analysis::RsmState::S1;
    analysis::PortableSummary Summary;
  };

  bool fetch(pag::NodeId Node, const std::vector<uint32_t> &Fields,
             analysis::RsmState S, analysis::PortableSummary &Out) override {
    return Store.fetch(Node, Fields, S, Out);
  }

  void publish(pag::NodeId Node, std::vector<uint32_t> Fields,
               analysis::RsmState S,
               analysis::PortableSummary Summary) override {
    Published.push_back(Entry{Node, Fields, S, Summary});
    Store.publish(Node, std::move(Fields), S, std::move(Summary));
  }

  engine::TieredSummaryStore Store;
  /// Every summary published so far, in publish order.  A sequential
  /// DYNSUM instance publishes each key at most once.
  std::vector<Entry> Published;
};

} // namespace testing
} // namespace dynsum

#endif // DYNSUM_TESTS_RECORDINGSTORE_H
