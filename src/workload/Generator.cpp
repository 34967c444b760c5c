//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic program generator implementation.
///
/// Layout of the generated method list (rank 0 is the "hottest"):
///   [0, NumContainerMethods)  container library: store/load pairs over
///                             shared Box-like classes (the Vector.add/
///                             Vector.get pattern that drives summary
///                             reuse in the paper's motivating example);
///   [.., +NumFactories)       factory methods "createN" (FactoryM);
///   [.., +NumVirtuals)        virtual family methods "virtF" on class
///                             families (CHA fan-out);
///   [.., NumMethods)          ordinary methods, calling lower ranks
///                             through a Zipf distribution;
///   the last few methods are roots ("mainN") that fan out widely.
///
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include "ir/Builder.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace dynsum;
using namespace dynsum::ir;
using namespace dynsum::workload;

namespace {

std::string nameOf(const char *Prefix, size_t I) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%s%zu", Prefix, I);
  return std::string(Buf);
}

uint64_t hashName(const std::string &Name, uint64_t Extra) {
  uint64_t H = 0x9e3779b97f4a7c15ull ^ Extra;
  for (char C : Name)
    H = hashCombine(H, uint64_t(uint8_t(C)));
  return H;
}

/// Rounds a scaled Table 3 count to a usable quota.
size_t quota(double ThousandsInPaper, double Scale, size_t Min) {
  double V = ThousandsInPaper * 1000.0 * Scale;
  size_t Q = size_t(std::llround(V));
  return Q < Min ? Min : Q;
}

/// All derived sizing for one generated program.
struct Plan {
  size_t NumMethods;
  size_t NumClasses;
  size_t NumFamilies; ///< class families with virtual methods
  size_t NumFields;
  size_t NumGlobals;
  size_t NumContainerMethods;
  size_t NumMixers;
  size_t NumFactories;
  size_t NumVirtuals; ///< total virtual-family methods
  size_t NumRoots;

  size_t AllocQuota;
  size_t AssignQuota;
  size_t LoadQuota;
  size_t StoreQuota;
  size_t CallQuota;        ///< call statements (entry edges ~ args * calls)
  size_t GlobalQuota;      ///< assignglobal statements
  size_t CastQuota;        ///< downcast statements (SafeCast queries)
  size_t FactoryCallQuota; ///< calls to factories (FactoryM queries)
};

Plan makePlan(const BenchmarkSpec &Spec, const GenOptions &Opts) {
  Plan P;
  // Size methods realistically (a few dozen pointer-relevant variables
  // each, like compiled Java), deriving the method count from the
  // variable target when Table 3's printed method count would make
  // methods enormous.  Huge single methods would blow up *every*
  // demand-driven analysis far beyond what the paper's workloads do.
  P.NumMethods = std::max(quota(Spec.MethodsK, Opts.Scale, 32),
                          quota(Spec.VarsK, Opts.Scale, 32) / 50);
  P.NumClasses = std::max<size_t>(12, P.NumMethods / 5);
  P.NumFamilies = std::max<size_t>(3, P.NumClasses / 6);
  P.NumFields = std::max<size_t>(10, P.NumClasses);
  P.NumGlobals = std::max<size_t>(4, quota(Spec.AssignGlobalK, Opts.Scale, 4) / 8);

  P.AllocQuota = quota(Spec.ObjectsK, Opts.Scale, P.NumMethods);
  P.AssignQuota = quota(Spec.AssignK, Opts.Scale, 2 * P.NumMethods);
  P.LoadQuota = quota(Spec.LoadK, Opts.Scale, P.NumMethods);
  P.StoreQuota = quota(Spec.StoreK, Opts.Scale, P.NumMethods / 2 + 1);
  // Each call contributes roughly 2.5 entry edges (receiver + args,
  // times the occasional multi-target virtual).
  P.CallQuota = quota(Spec.EntryK, Opts.Scale, P.NumMethods) * 2 / 5;
  P.GlobalQuota = quota(Spec.AssignGlobalK, Opts.Scale, 4);
  P.CastQuota =
      std::max<size_t>(8, size_t(std::llround(Spec.QuerySafeCast *
                                              Opts.Scale * 4)));
  P.FactoryCallQuota =
      std::max<size_t>(8, size_t(std::llround(Spec.QueryFactoryM *
                                              Opts.Scale * 4)));

  P.NumContainerMethods = std::max<size_t>(6, P.NumMethods / 25) & ~size_t(1);
  P.NumMixers = std::max<size_t>(4, P.NumMethods / 30);
  P.NumFactories = std::max<size_t>(4, P.NumMethods / 40);
  P.NumVirtuals = 0; // filled while laying out families
  P.NumRoots = std::max<size_t>(2, P.NumMethods / 50);
  return P;
}

/// Generator state while emitting one program.
class Generation {
public:
  Generation(const BenchmarkSpec &Spec, const GenOptions &Opts)
      : Spec(Spec), Opts(Opts), P(makePlan(Spec, Opts)),
        R(hashName(Spec.Name, Opts.Seed)) {}

  std::unique_ptr<Program> run() {
    initQuotas();
    layOutClasses();
    declareGlobals();
    declareMethods();
    emitBodies();
    return B.takeProgram();
  }

private:
  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  void layOutClasses() {
    // Container element/holder classes first.
    B.cls("Box");
    B.cls("Item");
    // Class families: base plus 1..3 subclasses.
    for (size_t F = 0; F < P.NumFamilies; ++F) {
      std::string Base = nameOf("Base", F);
      B.cls(Base);
      size_t Subs = 1 + R.nextBelow(3);
      for (size_t S = 0; S < Subs; ++S)
        B.cls(nameOf(("Sub" + std::to_string(F) + "_").c_str(), S), Base);
      FamilySubCount.push_back(Subs);
    }
    // Plain classes (also the cast-target pool), as subclasses of the
    // families' bases or Object to give SafeCast real hierarchies.
    for (size_t C = 0; C < P.NumClasses; ++C) {
      if (R.nextBool(0.5)) {
        size_t F = R.nextBelow(P.NumFamilies);
        B.cls(nameOf("C", C), nameOf("Base", F));
      } else {
        B.cls(nameOf("C", C));
      }
    }
    for (size_t F = 0; F < P.NumFields; ++F)
      B.field(nameOf("f", F));
  }

  void declareGlobals() {
    for (size_t G = 0; G < P.NumGlobals; ++G)
      B.global(nameOf("g", G));
  }

  /// Declares every method signature before any body references it.
  void declareMethods() {
    // Container library: storeK(b, p) { b.boxf = p }  /  loadK(b).
    for (size_t I = 0; I < P.NumContainerMethods; I += 2) {
      MethodOrder.push_back(
          B.method(nameOf("boxput", I / 2), {{"b", "Box"}, {"p", ""}}));
      MethodOrder.push_back(
          B.method(nameOf("boxget", I / 2), {{"b", "Box"}}));
    }
    // Mixers: merge two values into one result.  Chains of mixer calls
    // create the re-converging CFL "diamond" paths that real code is
    // full of (the same value passed through several arguments); they
    // are what memoization (REFINEPTS) and summaries (DYNSUM) prune
    // and an uncached search (NOREFINE) re-explores per path.
    FirstMixer = MethodOrder.size();
    for (size_t I = 0; I < P.NumMixers; ++I)
      MethodOrder.push_back(
          B.method(nameOf("mix", I), {{"a", ""}, {"b", ""}}));
    // Factories.
    FirstFactory = MethodOrder.size();
    for (size_t I = 0; I < P.NumFactories; ++I)
      MethodOrder.push_back(B.method(nameOf("create", I), {{"p", ""}}));
    // Virtual families: every class in family F implements virtF.
    FirstVirtual = MethodOrder.size();
    for (size_t F = 0; F < P.NumFamilies; ++F) {
      std::string VName = nameOf("virt", F);
      std::string Base = nameOf("Base", F);
      MethodOrder.push_back(
          B.method(Base + "." + VName, {{"this", Base}, {"p", ""}}));
      for (size_t S = 0; S < FamilySubCount[F]; ++S) {
        std::string Sub = nameOf(("Sub" + std::to_string(F) + "_").c_str(), S);
        MethodOrder.push_back(
            B.method(Sub + "." + VName, {{"this", Sub}, {"p", ""}}));
      }
    }
    // Ordinary methods + roots.
    FirstOrdinary = MethodOrder.size();
    size_t Remaining = P.NumMethods > MethodOrder.size()
                           ? P.NumMethods - MethodOrder.size()
                           : P.NumRoots;
    for (size_t I = 0; I < Remaining; ++I) {
      bool IsRoot = I + P.NumRoots >= Remaining;
      const char *Prefix = IsRoot ? "main" : "m";
      MethodOrder.push_back(B.method(nameOf(Prefix, I), {{"p1", ""}, {"p2", ""}}));
    }
  }

  //===------------------------------------------------------------------===//
  // Bodies
  //===------------------------------------------------------------------===//

  void emitBodies() {
    emitContainerBodies();
    emitMixerBodies();
    emitFactoryBodies();
    emitVirtualBodies();
    size_t NumOrdinary = MethodOrder.size() - FirstOrdinary;
    // Zipf over callee ranks: low ranks (library) get called the most.
    ZipfSampler CalleeZipf(FirstOrdinary + NumOrdinary, 0.9);
    ZipfSampler FieldZipf(B.program().fields().size(), 0.8);
    for (size_t I = FirstOrdinary; I < MethodOrder.size(); ++I)
      emitOrdinaryBody(I, CalleeZipf, FieldZipf, NumOrdinary);
  }

  void emitContainerBodies() {
    for (size_t I = 0; I < P.NumContainerMethods; I += 2) {
      // Each put/get pair owns its field, like a real container class
      // whose backing field is private: field-based match edges then
      // fan out only to that pair's stores.
      std::string FieldK = nameOf("boxf", I / 2);
      MethodId Put = MethodOrder[I];
      B.store(Put, "b", FieldK, "p");
      B.ret(Put, "p");
      MethodId Get = MethodOrder[I + 1];
      B.load(Get, "r", "b", FieldK);
      B.ret(Get, "r");
    }
  }

  void emitMixerBodies() {
    for (size_t I = FirstMixer; I < FirstMixer + P.NumMixers; ++I) {
      MethodId M = MethodOrder[I];
      B.assign(M, "r", "a");
      B.assign(M, "r", "b");
      B.ret(M, "r");
    }
  }

  /// Routes \p Val through a chain of mixer calls of random depth,
  /// passing the running value through both arguments (the diamond).
  std::string mixerChain(MethodId M, const std::string &Val,
                         std::function<std::string()> Fresh) {
    std::string Cur = Val;
    size_t Depth = 3 + R.nextBelow(6);
    for (size_t D = 0; D < Depth; ++D) {
      std::string Next = Fresh();
      size_t Mixer = FirstMixer + R.nextBelow(P.NumMixers);
      B.call(M, Next, MethodOrder[Mixer], {Cur, Cur});
      Cur = Next;
    }
    return Cur;
  }

  void emitFactoryBodies() {
    for (size_t I = FirstFactory; I < FirstFactory + P.NumFactories; ++I) {
      MethodId M = MethodOrder[I];
      // 40% of the factories delegate to an earlier factory — the
      // common "create calls createImpl" layering — so freshness proofs
      // must cross call boundaries.
      if (I > FirstFactory && R.nextBool(0.4)) {
        size_t Delegate =
            FirstFactory + R.nextBelow(I - FirstFactory);
        B.call(M, "o", MethodOrder[Delegate], {"p"});
        B.ret(M, "o");
        continue;
      }
      std::string Cls = nameOf("C", R.nextBelow(P.NumClasses));
      B.alloc(M, "o", Cls);
      // Half of the factories initialize a field of the fresh object.
      if (R.nextBool(0.5))
        B.store(M, "o", fieldName(R.nextBelow(P.NumFields)), "p");
      // Half return through a private container round-trip, so
      // freshness proofs need field-sensitive heap reasoning.
      if (R.nextBool(0.5)) {
        B.alloc(M, "fb", "Box");
        // Each factory keeps to its own container pair (private scratch
        // state), so a field-based pass can already prove freshness for
        // non-delegating factories.
        size_t Half = std::max<size_t>(1, P.NumContainerMethods / 4);
        size_t Pair = Half + (I * 7 + 3) % Half;
        B.call(M, "", boxPut(Pair), {"fb", "o"});
        B.call(M, "o2", boxGet(Pair), {"fb"});
        B.ret(M, "o2");
      } else {
        B.ret(M, "o");
      }
      --QuotaAllocs;
    }
  }

  void emitVirtualBodies() {
    for (size_t I = FirstVirtual; I < FirstOrdinary; ++I) {
      MethodId M = MethodOrder[I];
      // Each override returns a fresh object or its argument.
      if (R.nextBool(0.7)) {
        B.alloc(M, "o", nameOf("C", R.nextBelow(P.NumClasses)));
        B.ret(M, "o");
        --QuotaAllocs;
      } else {
        B.assign(M, "o", "p");
        B.ret(M, "o");
      }
    }
  }

  std::string fieldName(size_t F) { return nameOf("f", F); }

  void emitOrdinaryBody(size_t Rank, ZipfSampler &CalleeZipf,
                        ZipfSampler &FieldZipf, size_t NumOrdinary) {
    MethodId M = MethodOrder[Rank];
    bool IsRoot = Rank + P.NumRoots >= MethodOrder.size();

    // Per-method draws; roots get a bigger share of calls.
    auto Draw = [&](size_t &GlobalQuota, double Mean) {
      if (GlobalQuota == 0)
        return size_t(0);
      double Jitter = 0.5 + R.nextDouble();
      size_t N;
      if (Mean < 1.0)
        N = R.nextBool(Mean) ? 1 : 0; // keep rare statement kinds alive
      else
        N = size_t(std::llround(Mean * Jitter));
      N = std::min(N, GlobalQuota);
      GlobalQuota -= N;
      return N;
    };
    double Share = 1.0 / double(std::max<size_t>(1, NumOrdinary));
    size_t Allocs = Draw(QuotaAllocs, double(P.AllocQuota) * Share);
    size_t Assigns = Draw(QuotaAssigns, double(P.AssignQuota) * Share);
    size_t Loads = Draw(QuotaLoads, double(P.LoadQuota) * Share);
    size_t Stores = Draw(QuotaStores, double(P.StoreQuota) * Share);
    size_t Calls =
        Draw(QuotaCalls, double(P.CallQuota) * Share * (IsRoot ? 3.0 : 1.0));
    size_t Globals = Draw(QuotaGlobals, double(P.GlobalQuota) * Share);
    size_t Casts = Draw(QuotaCasts, double(P.CastQuota) * Share);
    size_t FactoryCalls =
        Draw(QuotaFactoryCalls, double(P.FactoryCallQuota) * Share);

    // Pool of value-bearing locals, refreshed by every statement.
    std::vector<std::string> Vals = {"p1", "p2"};
    // Locals whose dynamic type is known (they hold a fresh allocation
    // that flowed through assignments only): (name, class name).
    std::vector<std::pair<std::string, std::string>> TypedVals;
    size_t NextLocal = 0;
    auto Fresh = [&] { return nameOf("v", NextLocal++); };
    auto Pick = [&]() -> std::string { return R.pick(Vals); };

    // A Box local shared with the container library: the cross-context
    // store/load pattern of the paper's Vector example.
    B.alloc(M, "box", "Box");
    if (QuotaAllocs > 0)
      --QuotaAllocs;

    // The first ordinary method is always directly recursive, so every
    // generated program exercises recursion collapsing even at tiny
    // scales where the probabilistic self-calls may not fire.
    if (Rank == FirstOrdinary) {
      std::string SelfR = Fresh();
      B.call(M, SelfR, MethodOrder[Rank], {"p1", "p2"});
      Vals.push_back(SelfR);
    }

    for (size_t A = 0; A < Allocs; ++A) {
      std::string X = Fresh();
      std::string Cls = nameOf("C", R.nextBelow(P.NumClasses));
      B.alloc(M, X, Cls);
      Vals.push_back(X);
      TypedVals.emplace_back(X, Cls);
    }
    // Assign chains, capped per segment to bound recursion depth.
    size_t Emitted = 0;
    while (Emitted < Assigns) {
      std::string Src = Pick();
      size_t Len = std::min<size_t>(Assigns - Emitted,
                                    1 + R.nextBelow(Opts.MaxChain));
      for (size_t K = 0; K < Len; ++K) {
        std::string Dst = Fresh();
        B.assign(M, Dst, Src);
        Src = Dst;
        ++Emitted;
      }
      Vals.push_back(Src);
    }
    for (size_t S = 0; S < Stores; ++S) {
      std::string Base = Pick();
      if (R.nextBool(Opts.NullStoreFraction)) {
        std::string Z = Fresh();
        B.nullAssign(M, Z);
        B.store(M, Base, fieldName(FieldZipf.sample(R)), Z);
        continue;
      }
      B.store(M, Base, fieldName(FieldZipf.sample(R)), Pick());
    }
    for (size_t L = 0; L < Loads; ++L) {
      std::string Dst = Fresh();
      B.load(M, Dst, Pick(), fieldName(FieldZipf.sample(R)));
      Vals.push_back(Dst);
    }

    // Container round-trip through the shared library (hot summaries);
    // probabilistic so call-edge density stays near the Table 3 mix.
    if (R.nextBool(0.6)) {
      size_t Half = std::max<size_t>(1, P.NumContainerMethods / 4);
      size_t Pair = Half + R.nextBelow(Half);
      B.call(M, "", boxPut(Pair), {"box", Pick()});
      std::string BoxVal = Fresh();
      B.call(M, BoxVal, boxGet(Pair), {"box"});
      Vals.push_back(BoxVal);
    }

    for (size_t C = 0; C < Calls; ++C) {
      if (R.nextBool(Opts.VirtualCallFraction)) {
        emitVirtualCall(M, Vals, Fresh());
        continue;
      }
      size_t CalleeRank;
      if (R.nextBool(Opts.RecursionFraction))
        CalleeRank = Rank; // self call: a guaranteed recursion cycle
      else
        CalleeRank = std::min<size_t>(CalleeZipf.sample(R), Rank - 1);
      emitDirectCall(M, CalleeRank, Vals, Fresh());
    }
    for (size_t F = 0; F < FactoryCalls; ++F) {
      std::string Dst = Fresh();
      size_t Factory = FirstFactory + R.nextBelow(P.NumFactories);
      // Factory arguments often come off mixer chains: freshness
      // judgments then traverse the diamond region too.
      std::string Arg =
          R.nextBool(0.5) ? mixerChain(M, Pick(), Fresh) : Pick();
      B.call(M, Dst, MethodOrder[Factory], {Arg});
      Vals.push_back(Dst);
    }
    for (size_t G = 0; G < Globals; ++G) {
      std::string GName = nameOf("g", R.nextBelow(P.NumGlobals));
      if (R.nextBool(0.5)) {
        B.assign(M, GName, Pick()); // store to global
      } else {
        std::string Dst = Fresh();
        B.assign(M, Dst, GName); // read from global
        Vals.push_back(Dst);
      }
    }
    for (size_t C = 0; C < Casts; ++C) {
      // Downcast a value of static type Object.  Most real downcasts
      // are correct but only provable through the heap: 70% of the
      // time round-trip a local of known dynamic type through the
      // shared container library (store, load back, cast to its own
      // class) — exactly the Vector pattern that makes the paper's
      // SafeCast queries demand context-sensitive field-sensitive
      // reasoning.  The rest cast arbitrary values (mostly unsafe).
      std::string Dst = Fresh();
      if (!TypedVals.empty() && R.nextBool(0.7)) {
        const auto &[Val, Cls] = R.pick(TypedVals);
        std::string Mixed = mixerChain(M, Val, Fresh);
        std::string CastBox = Fresh();
        B.alloc(M, CastBox, "Box");
        // Containers are type-themed: values of one class go through
        // one put/get pair, like real homogeneous collections.  A
        // field-based (match-edge) pass can then often prove the cast
        // safe already — the regime where the paper's REFINEPTS
        // refinement pays off.
        size_t Half = std::max<size_t>(1, P.NumContainerMethods / 4);
        size_t Pair = hashName(Cls, 17) % Half;
        B.call(M, "", boxPut(Pair), {CastBox, Mixed});
        std::string Loaded = Fresh();
        B.call(M, Loaded, boxGet(Pair), {CastBox});
        B.cast(M, Dst, Cls, Loaded);
      } else {
        B.cast(M, Dst, nameOf("C", R.nextBelow(P.NumClasses)), Pick());
      }
      Vals.push_back(Dst);
    }
    B.ret(M, Pick());
  }

  /// The container pair K: boxputK and boxgetK, declared side by side.
  MethodId boxPut(size_t Pair) const { return MethodOrder[2 * Pair]; }
  MethodId boxGet(size_t Pair) const { return MethodOrder[2 * Pair + 1]; }

  void emitDirectCall(MethodId Caller, size_t CalleeRank,
                      std::vector<std::string> &Vals,
                      const std::string &Dst) {
    const Program &Prog = B.program();
    const Method &Callee = Prog.method(MethodOrder[CalleeRank]);
    if (Callee.Owner != kNone) {
      // Instance method: call it virtually instead (receiver typing is
      // handled there); direct calls target free methods only.
      emitVirtualCall(Caller, Vals, Dst);
      return;
    }
    std::vector<std::string_view> Args;
    for (size_t I = 0; I < Callee.Params.size(); ++I)
      Args.push_back(R.pick(Vals));
    // boxput/boxget expect a Box receiver argument first.
    if (!Args.empty() && startsWith(Prog.names().text(Callee.Name), "box"))
      Args[0] = "box";
    B.call(Caller, Dst, MethodOrder[CalleeRank], Args);
    Vals.push_back(Dst);
  }

  void emitVirtualCall(MethodId Caller, std::vector<std::string> &Vals,
                       const std::string &Dst) {
    size_t F = R.nextBelow(P.NumFamilies);
    size_t Sub = R.nextBelow(FamilySubCount[F]);
    std::string Recv = "recv" + std::to_string(F);
    // Allocate a subclass into a base-typed receiver once per method.
    if (std::find(Vals.begin(), Vals.end(), Recv) == Vals.end()) {
      B.alloc(Caller, Recv,
              nameOf(("Sub" + std::to_string(F) + "_").c_str(), Sub));
      B.declareLocal(Caller, Recv, nameOf("Base", F));
      Vals.push_back(Recv);
    }
    B.vcall(Caller, Dst, Recv, nameOf("virt", F), {R.pick(Vals)});
    Vals.push_back(Dst);
  }

  const BenchmarkSpec &Spec;
  const GenOptions &Opts;
  Plan P;
  Rng R;
  ProgramBuilder B;

  std::vector<MethodId> MethodOrder;
  std::vector<size_t> FamilySubCount;
  size_t FirstMixer = 0;
  size_t FirstFactory = 0;
  size_t FirstVirtual = 0;
  size_t FirstOrdinary = 0;

  // Mutable global quotas consumed while emitting.
  size_t QuotaAllocs = 0;
  size_t QuotaAssigns = 0;
  size_t QuotaLoads = 0;
  size_t QuotaStores = 0;
  size_t QuotaCalls = 0;
  size_t QuotaGlobals = 0;
  size_t QuotaCasts = 0;
  size_t QuotaFactoryCalls = 0;

  void initQuotas() {
    QuotaAllocs = P.AllocQuota;
    QuotaAssigns = P.AssignQuota;
    QuotaLoads = P.LoadQuota;
    QuotaStores = P.StoreQuota;
    QuotaCalls = P.CallQuota;
    QuotaGlobals = P.GlobalQuota;
    QuotaCasts = P.CastQuota;
    QuotaFactoryCalls = P.FactoryCallQuota;
  }
};

} // namespace

std::unique_ptr<Program>
dynsum::workload::generateProgram(const BenchmarkSpec &Spec,
                                  const GenOptions &Opts) {
  Generation G(Spec, Opts);
  return G.run();
}

size_t dynsum::workload::scaledQueryCount(const BenchmarkSpec &Spec,
                                          unsigned ClientIndex,
                                          double Scale) {
  unsigned Total = ClientIndex == 0   ? Spec.QuerySafeCast
                   : ClientIndex == 1 ? Spec.QueryNullDeref
                                      : Spec.QueryFactoryM;
  size_t N = size_t(std::llround(double(Total) * Scale));
  return std::max<size_t>(8, N);
}

std::vector<ir::VarId>
dynsum::workload::probeVariables(const ir::Program &P, size_t Stride) {
  std::vector<ir::VarId> Out;
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Id % Stride == 0)
      Out.push_back(V.Id);
  return Out;
}

std::vector<ir::MethodId> dynsum::workload::applyScriptEdit(ir::Program &P,
                                                            unsigned I) {
  ir::MethodId M = P.methods()[(I * 37 + 11) % P.methods().size()].Id;
  ir::TypeId T = P.classes().back().Id;
  ir::VarId Fresh = P.createLocal(P.name("svc$" + std::to_string(I)), M, T);
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Fresh;
  New.Type = T;
  New.Alloc = P.createAllocSite(T, M, Symbol{});
  P.addStatement(M, std::move(New));
  for (const ir::Statement &St : P.method(M).Stmts)
    if (St.Kind == ir::StmtKind::Assign) {
      ir::Statement Copy;
      Copy.Kind = ir::StmtKind::Assign;
      Copy.Src = Fresh;
      Copy.Dst = St.Dst;
      P.addStatement(M, std::move(Copy));
      break;
    }
  return {M};
}
