// Substrate micro-benchmarks: B+-tree vs hash index operation throughput.
//
// The paper's Index Buffer is structure-agnostic (§III); this bench
// quantifies the raw point/range operation costs of the two structures the
// library ships (kind 0 = B+-tree, 1 = hash), informing
// the structure ablation (bench_ablation_structure). BM_Insert also reports
// each structure's `bytes_per_entry` by ApproxBytes.

#include <benchmark/benchmark.h>

#include "btree/btree.h"
#include "btree/hash_index.h"
#include "common/rng.h"

namespace aib {
namespace {

std::unique_ptr<IndexStructure> Make(int kind) {
  return CreateIndexStructure(kind == 0 ? IndexStructureKind::kBTree
                                        : IndexStructureKind::kHash);
}

void FillRandom(IndexStructure* index, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    index->Insert(static_cast<Value>(rng.UniformInt(1, 50000)),
                  Rid{static_cast<PageId>(i / 64),
                      static_cast<SlotId>(i % 64)});
  }
}

void BM_Insert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto index = Make(static_cast<int>(state.range(0)));
    state.ResumeTiming();
    FillRandom(index.get(), n, 7);
    benchmark::DoNotOptimize(index->EntryCount());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  auto filled = Make(static_cast<int>(state.range(0)));
  FillRandom(filled.get(), n, 7);
  state.counters["bytes_per_entry"] =
      static_cast<double>(filled->ApproxBytes()) / static_cast<double>(n);
}
BENCHMARK(BM_Insert)
    ->ArgNames({"kind", "n"})
    ->ArgsProduct({{0, 1}, {10000, 100000}});

void BM_PointLookup(benchmark::State& state) {
  auto index = Make(static_cast<int>(state.range(0)));
  FillRandom(index.get(), 100000, 7);
  Rng rng(13);
  std::vector<Rid> out;
  for (auto _ : state) {
    out.clear();
    index->Lookup(static_cast<Value>(rng.UniformInt(1, 50000)), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointLookup)->ArgNames({"kind"})->Arg(0)->Arg(1);

void BM_RangeScan100(benchmark::State& state) {
  auto index = Make(static_cast<int>(state.range(0)));
  FillRandom(index.get(), 100000, 7);
  Rng rng(17);
  for (auto _ : state) {
    const Value lo = static_cast<Value>(rng.UniformInt(1, 49900));
    size_t count = 0;
    index->Scan(lo, lo + 99, [&](Value, const Rid&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeScan100)->ArgNames({"kind"})->Arg(0)->Arg(1);

void BM_RemoveInsertChurn(benchmark::State& state) {
  auto index = Make(static_cast<int>(state.range(0)));
  FillRandom(index.get(), 100000, 7);
  Rng rng(23);
  for (auto _ : state) {
    const Value v = static_cast<Value>(rng.UniformInt(1, 50000));
    const Rid rid{999999, 1};
    index->Insert(v, rid);
    benchmark::DoNotOptimize(index->Remove(v, rid));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoveInsertChurn)->ArgNames({"kind"})->Arg(0)->Arg(1);

void BM_BTreeFanoutSweep(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BTree tree(fanout);
    state.ResumeTiming();
    FillRandom(&tree, 50000, 7);
    benchmark::DoNotOptimize(tree.EntryCount());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_BTreeFanoutSweep)
    ->ArgNames({"fanout"})
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(256);

}  // namespace
}  // namespace aib

BENCHMARK_MAIN();
