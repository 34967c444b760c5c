//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the OStream formatting helpers and standard sinks.
///
//===----------------------------------------------------------------------===//

#include "support/OStream.h"

#include <cinttypes>
#include <cstring>

using namespace dynsum;

OStream::~OStream() = default;

void OStream::flush() {}

OStream &OStream::operator<<(uint64_t V) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  write(Buf, size_t(Len));
  return *this;
}

OStream &OStream::operator<<(int64_t V) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
  write(Buf, size_t(Len));
  return *this;
}

OStream &OStream::operator<<(double V) { return writeFixed(V, 6); }

OStream &OStream::writeFixed(double V, unsigned Decimals) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%.*f", int(Decimals), V);
  if (Len < 0)
    return *this;
  if (size_t(Len) < sizeof(Buf)) {
    write(Buf, size_t(Len));
    return *this;
  }
  // Fixed notation of a huge value runs to hundreds of digits.
  std::string Long(size_t(Len) + 1, '\0');
  std::snprintf(Long.data(), Long.size(), "%.*f", int(Decimals), V);
  write(Long.data(), size_t(Len));
  return *this;
}

OStream &OStream::writePadded(std::string_view S, unsigned Width,
                              bool LeftAlign) {
  unsigned Pad = S.size() < Width ? Width - unsigned(S.size()) : 0;
  if (LeftAlign) {
    write(S.data(), S.size());
    writeRepeated(' ', Pad);
    return *this;
  }
  writeRepeated(' ', Pad);
  write(S.data(), S.size());
  return *this;
}

OStream &OStream::writeRepeated(char C, unsigned N) {
  char Buf[64];
  std::memset(Buf, C, sizeof(Buf));
  while (N > 0) {
    unsigned Chunk = N < sizeof(Buf) ? N : unsigned(sizeof(Buf));
    write(Buf, Chunk);
    N -= Chunk;
  }
  return *this;
}

void FileOStream::write(const char *Data, size_t Size) {
  std::fwrite(Data, 1, Size, Handle);
}

void FileOStream::flush() { std::fflush(Handle); }

OStream &dynsum::outs() {
  static FileOStream Stream(stdout);
  return Stream;
}

OStream &dynsum::errs() {
  static FileOStream Stream(stderr);
  return Stream;
}
