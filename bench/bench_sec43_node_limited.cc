/**
 * @file
 * Reproduces the Sec 4.3 node-limited routing analysis (group-limit
 * sweep -> E[M] and IB time) and times the gate: route() on fixed
 * logits, routeNext() on a token stream, and next() alone.
 */

#include "bench_util.hh"

#include "core/report.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"

namespace {

void
printTables()
{
    dsv3::bench::printTable(dsv3::core::reproduceNodeLimited());
}

void
BM_GateRoute(benchmark::State &state)
{
    dsv3::moe::GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = (std::size_t)state.range(0);
    dsv3::moe::TopKGate gate(cfg);
    dsv3::moe::TokenScoreGenerator gen(256, 0.3, 3);
    auto logits = gen.next();
    for (auto _ : state)
        benchmark::DoNotOptimize(gate.route(logits));
}
BENCHMARK(BM_GateRoute)->Arg(8)->Arg(4)->Arg(1);

/**
 * Token synthesis fused with routing into one reused decision: the
 * DeepEP per-token path.
 */
void
BM_GateRouteNext(benchmark::State &state)
{
    dsv3::moe::GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = (std::size_t)state.range(0);
    dsv3::moe::TopKGate gate(cfg);
    dsv3::moe::TokenScoreGenerator gen(256, 0.3, 3);
    dsv3::moe::GateTally tally;
    dsv3::moe::RoutingDecision decision;
    for (auto _ : state) {
        gate.routeNext(gen, decision, &tally);
        benchmark::DoNotOptimize(decision.experts.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GateRouteNext)->Arg(8)->Arg(4)->Arg(1);

void
BM_TokenGeneration(benchmark::State &state)
{
    dsv3::moe::TokenScoreGenerator gen(256, 0.3, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TokenGeneration);

} // namespace

DSV3_BENCH_MAIN(printTables)
