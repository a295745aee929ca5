/**
 * @file
 * Golden tests for FlowSimEngine: the incremental solver must produce
 * rates bit-identical to the classic full-rescan water-fill it
 * replaced. The reference implementation below is a verbatim copy of
 * the seed solver (rebuild subflows per call, rescan every edge per
 * bottleneck iteration). run(), which resumes each epoch's water-fill
 * from the earliest round a retired flow froze in, is held to the
 * seed's epoch loop built on that solver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/rng.hh"
#include "net/cluster.hh"
#include "net/flow.hh"
#include "obs/registry.hh"

namespace dsv3::net {
namespace {

// ---- Reference solver: the seed implementation, kept verbatim. ----

struct RefSubflow
{
    std::size_t flow;
    const Path *path;
    double rate = 0.0;
    bool frozen = false;
};

void
referenceWaterFill(const Graph &graph,
                   std::vector<RefSubflow> &subflows,
                   std::vector<double> residual)
{
    std::vector<std::uint32_t> active_on_edge(graph.edgeCount(), 0);
    std::size_t unfrozen = 0;
    for (auto &sf : subflows) {
        if (sf.frozen)
            continue;
        ++unfrozen;
        for (EdgeId e : *sf.path)
            ++active_on_edge[e];
    }

    std::vector<bool> done(subflows.size(), false);
    while (unfrozen > 0) {
        double best_share = std::numeric_limits<double>::infinity();
        EdgeId best_edge = 0;
        bool found = false;
        for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
            if (active_on_edge[e] == 0)
                continue;
            double share = residual[e] / (double)active_on_edge[e];
            if (share < best_share) {
                best_share = share;
                best_edge = e;
                found = true;
            }
        }
        ASSERT_TRUE(found);

        for (std::size_t i = 0; i < subflows.size(); ++i) {
            RefSubflow &sf = subflows[i];
            if (sf.frozen || done[i])
                continue;
            bool crosses = false;
            for (EdgeId e : *sf.path) {
                if (e == best_edge) {
                    crosses = true;
                    break;
                }
            }
            if (!crosses)
                continue;
            sf.rate = best_share;
            done[i] = true;
            --unfrozen;
            for (EdgeId e : *sf.path) {
                residual[e] -= best_share;
                if (residual[e] < 0.0)
                    residual[e] = 0.0;
                --active_on_edge[e];
            }
        }
    }
    for (std::size_t i = 0; i < subflows.size(); ++i)
        if (done[i])
            subflows[i].frozen = true;
}

std::vector<double>
referenceMaxMinRates(const Graph &graph, const std::vector<Flow> &flows)
{
    std::vector<RefSubflow> subflows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        for (const Path &p : flows[i].paths) {
            if (p.empty())
                continue;
            subflows.push_back({i, &p, 0.0, false});
        }
    }
    std::vector<double> residual(graph.edgeCount());
    for (EdgeId e = 0; e < graph.edgeCount(); ++e)
        residual[e] = graph.edge(e).capacity;
    referenceWaterFill(graph, subflows, std::move(residual));

    std::vector<double> rates(flows.size(), 0.0);
    for (const RefSubflow &sf : subflows)
        rates[sf.flow] += sf.rate;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        bool local = true;
        for (const Path &p : flows[i].paths)
            if (!p.empty())
                local = false;
        if (local)
            rates[i] = std::numeric_limits<double>::infinity();
    }
    return rates;
}

/**
 * The seed's fluid epoch loop over referenceMaxMinRates(): a full
 * re-solve of the surviving flows every epoch, with run()'s up-front
 * retirement of zero-byte and local flows, relative finish threshold
 * and first-epoch utilization.
 */
FlowSimResult
referenceRun(const Graph &graph, const std::vector<Flow> &flows)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = flows.size();
    FlowSimResult result;
    result.finishTimes.assign(n, 0.0);
    result.rates.assign(n, 0.0);
    std::vector<double> remaining(n, 0.0);
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < n; ++i) {
        remaining[i] = flows[i].bytes;
        bool local = true;
        for (const Path &p : flows[i].paths)
            if (!p.empty())
                local = false;
        if (remaining[i] <= 0.0 || local) {
            if (local && remaining[i] > 0.0)
                result.rates[i] = inf;
            continue;
        }
        active.push_back(i);
    }

    double now = 0.0;
    while (!active.empty()) {
        std::vector<Flow> subset;
        for (std::size_t i : active)
            subset.push_back(flows[i]);
        std::vector<double> rates = referenceMaxMinRates(graph, subset);
        if (result.epochs++ == 0) {
            std::vector<double> edge_load(graph.edgeCount(), 0.0);
            for (std::size_t a = 0; a < active.size(); ++a) {
                const Flow &f = flows[active[a]];
                result.rates[active[a]] = rates[a];
                for (std::size_t p = 0; p < f.paths.size(); ++p)
                    for (EdgeId e : f.paths[p])
                        edge_load[e] += rates[a] * f.weights[p];
            }
            for (EdgeId e = 0; e < graph.edgeCount(); ++e)
                result.peakUtilization =
                    std::max(result.peakUtilization,
                             edge_load[e] / graph.edge(e).capacity);
        }
        double dt = inf;
        for (std::size_t a = 0; a < active.size(); ++a)
            if (rates[a] > 0.0)
                dt = std::min(dt, remaining[active[a]] / rates[a]);
        if (!std::isfinite(dt)) {
            ADD_FAILURE() << "reference deadlocked";
            break;
        }
        now += dt;
        std::size_t out = 0;
        for (std::size_t a = 0; a < active.size(); ++a) {
            const std::size_t i = active[a];
            remaining[i] -= rates[a] * dt;
            if (remaining[i] <= flows[i].bytes * 1e-9) {
                remaining[i] = 0.0;
                result.finishTimes[i] = now;
            } else {
                active[out++] = i;
            }
        }
        active.resize(out);
    }
    result.makespan = now;
    return result;
}

void
expectSameRun(const FlowSimResult &actual, const FlowSimResult &expected)
{
    EXPECT_EQ(actual.epochs, expected.epochs);
    EXPECT_EQ(actual.makespan, expected.makespan);
    EXPECT_EQ(actual.peakUtilization, expected.peakUtilization);
    ASSERT_EQ(actual.rates.size(), expected.rates.size());
    ASSERT_EQ(actual.finishTimes.size(), expected.finishTimes.size());
    for (std::size_t i = 0; i < expected.rates.size(); ++i) {
        EXPECT_EQ(actual.rates[i], expected.rates[i]) << "flow " << i;
        EXPECT_EQ(actual.finishTimes[i], expected.finishTimes[i])
            << "flow " << i;
    }
}

// ---- Shared topology / traffic builders. ----

/** Leaf-spine fabric: `leaves` leaves x `per_leaf` hosts, `spines`. */
struct Fabric
{
    Graph g;
    std::vector<NodeId> hosts;
};

Fabric
makeFabric(std::size_t leaves, std::size_t per_leaf,
           std::size_t spines, double nic = 10.0, double trunk = 7.0)
{
    Fabric f;
    std::vector<NodeId> leaf_ids, spine_ids;
    for (std::size_t l = 0; l < leaves; ++l)
        leaf_ids.push_back(
            f.g.addNode(NodeKind::LEAF, "leaf" + std::to_string(l)));
    for (std::size_t s = 0; s < spines; ++s)
        spine_ids.push_back(
            f.g.addNode(NodeKind::SPINE, "sp" + std::to_string(s)));
    for (NodeId leaf : leaf_ids)
        for (NodeId sp : spine_ids)
            f.g.addDuplex(leaf, sp, trunk, 1e-6);
    for (std::size_t l = 0; l < leaves; ++l) {
        for (std::size_t h = 0; h < per_leaf; ++h) {
            NodeId host = f.g.addNode(
                NodeKind::GPU,
                "h" + std::to_string(l * per_leaf + h));
            f.g.addDuplex(host, leaf_ids[l], nic, 1e-6);
            f.hosts.push_back(host);
        }
    }
    return f;
}

std::vector<Flow>
allToAll(const Fabric &f, double bytes = 100.0)
{
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (NodeId src : f.hosts)
        for (NodeId dst : f.hosts)
            if (src != dst)
                flows.push_back({src, dst, bytes, qp++, {}, {}});
    return flows;
}

class GoldenRatesTest : public ::testing::TestWithParam<RoutePolicy>
{};

TEST_P(GoldenRatesTest, EngineMatchesReferenceBitExact)
{
    Fabric f = makeFabric(4, 4, 4);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, GetParam(), 7);

    auto expected = referenceMaxMinRates(f.g, flows);
    auto actual = maxMinRates(f.g, flows);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "flow " << i;
}

TEST_P(GoldenRatesTest, IncrementalRemovalMatchesRebuild)
{
    // Retiring flows through the engine must give the same rates as
    // rebuilding the reference solver on the surviving subset.
    Fabric f = makeFabric(4, 4, 4);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, GetParam(), 3);

    FlowSimEngine engine(f.g, flows);
    std::vector<Flow> survivors;
    std::vector<std::size_t> survivor_ids;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        if (i % 3 == 0) {
            engine.removeFlow(i);
        } else {
            survivors.push_back(flows[i]);
            survivor_ids.push_back(i);
        }
    }
    EXPECT_EQ(engine.activeFlows(), survivors.size());

    auto expected = referenceMaxMinRates(f.g, survivors);
    const auto &actual = engine.solve();
    for (std::size_t s = 0; s < survivor_ids.size(); ++s)
        EXPECT_EQ(actual[survivor_ids[s]], expected[s])
            << "flow " << survivor_ids[s];
    for (std::size_t i = 0; i < flows.size(); ++i)
        if (i % 3 == 0)
            EXPECT_EQ(actual[i], 0.0);
}

TEST_P(GoldenRatesTest, EverySuccessiveEpochMatchesReference)
{
    // Walk a whole completion schedule: after each epoch's finisher
    // set is retired, the incremental rates must still equal a fresh
    // reference solve on the remaining flows.
    Fabric f = makeFabric(2, 3, 2);
    auto flows = allToAll(f);
    // Vary sizes so completions are staggered.
    Rng rng(11);
    for (auto &fl : flows)
        fl.bytes = 50.0 + 200.0 * rng.nextDouble();
    assignPaths(f.g, flows, GetParam(), 5);

    FlowSimEngine engine(f.g, flows);
    std::vector<double> remaining(flows.size());
    std::vector<bool> alive(flows.size(), true);
    for (std::size_t i = 0; i < flows.size(); ++i)
        remaining[i] = flows[i].bytes;

    std::size_t left = flows.size();
    int guard = 0;
    while (left > 0 && ++guard < 1000) {
        std::vector<Flow> active;
        std::vector<std::size_t> ids;
        for (std::size_t i = 0; i < flows.size(); ++i) {
            if (alive[i]) {
                active.push_back(flows[i]);
                ids.push_back(i);
            }
        }
        auto expected = referenceMaxMinRates(f.g, active);
        const auto &actual = engine.solve();
        for (std::size_t a = 0; a < ids.size(); ++a)
            ASSERT_EQ(actual[ids[a]], expected[a])
                << "epoch " << guard << " flow " << ids[a];

        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < ids.size(); ++a)
            if (expected[a] > 0.0)
                dt = std::min(dt, remaining[ids[a]] / expected[a]);
        ASSERT_TRUE(std::isfinite(dt));
        for (std::size_t a = 0; a < ids.size(); ++a) {
            std::size_t i = ids[a];
            remaining[i] -= expected[a] * dt;
            if (remaining[i] <= flows[i].bytes * 1e-9) {
                alive[i] = false;
                engine.removeFlow(i);
                --left;
            }
        }
    }
    EXPECT_EQ(left, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, GoldenRatesTest,
                         ::testing::Values(RoutePolicy::ECMP,
                                           RoutePolicy::ADAPTIVE,
                                           RoutePolicy::STATIC),
                         [](const auto &info) {
                             return routePolicyName(info.param);
                         });

TEST_P(GoldenRatesTest, RunMatchesReferenceOnSeededFabrics)
{
    // Random leaf-spine shapes, link speeds and flow sets. Sizes mix
    // a continuous draw (staggered finishes) with a three-value menu
    // (several flows finishing in one epoch), plus zero-byte flows
    // and duplicate (src, dst) pairs on distinct queue pairs.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const std::size_t leaves = 2 + rng.nextBounded(3);
        const std::size_t per_leaf = 1 + rng.nextBounded(3);
        const std::size_t spines = 1 + rng.nextBounded(3);
        const double nic = 5.0 + (double)rng.nextBounded(10);
        const double trunk = 3.0 + (double)rng.nextBounded(10);
        Fabric f = makeFabric(leaves, per_leaf, spines, nic, trunk);
        std::vector<Flow> flows;
        std::uint64_t qp = 0;
        for (NodeId src : f.hosts) {
            for (NodeId dst : f.hosts) {
                if (src == dst || rng.nextBounded(4) == 0)
                    continue;
                const std::size_t copies = 1 + rng.nextBounded(2);
                for (std::size_t c = 0; c < copies; ++c) {
                    double bytes;
                    switch (rng.nextBounded(8)) {
                      case 0:
                        bytes = 0.0;
                        break;
                      case 1:
                      case 2:
                      case 3:
                        bytes = 50.0 * (double)(1 + rng.nextBounded(3));
                        break;
                      default:
                        bytes = 10.0 + 290.0 * rng.nextDouble();
                    }
                    flows.push_back({src, dst, bytes, qp++, {}, {}});
                }
            }
        }
        assignPaths(f.g, flows, GetParam(), seed);
        expectSameRun(simulateFlows(f.g, flows),
                      referenceRun(f.g, flows));
    }
}

TEST_P(GoldenRatesTest, RunMatchesReferenceWithEqualSizes)
{
    // One size for every flow: each epoch retires a batch of flows
    // at once, so the resume round is a minimum over several flows.
    Fabric f = makeFabric(3, 3, 2);
    auto flows = allToAll(f, 64.0);
    assignPaths(f.g, flows, GetParam(), 9);
    FlowSimResult sim = simulateFlows(f.g, flows);
    EXPECT_LT(sim.epochs, flows.size() / 2);
    expectSameRun(sim, referenceRun(f.g, flows));
}

/**
 * DeepEP-shaped traffic on a multi-plane fat-tree: every GPU sends
 * token copies to its same-plane relay on each other host, relays
 * fan them out over NVLink, and intra-host deliveries go direct.
 * Token counts come from @p rng; transfers are aggregated per
 * (src, dst) pair as the DeepEP model does.
 */
std::vector<Flow>
deepEpFlows(const Cluster &c, Rng &rng)
{
    const std::size_t per_host = c.config.gpusPerHost;
    const std::size_t gpus = c.gpus.size();
    const double bytes_per_token = 7168.0;
    std::map<std::pair<NodeId, NodeId>, double> agg;
    auto add = [&](std::size_t a, std::size_t b, double tokens) {
        if (a != b && tokens > 0.0)
            agg[{c.gpus[a], c.gpus[b]}] += tokens * bytes_per_token;
    };
    for (std::size_t src = 0; src < gpus; ++src) {
        for (std::size_t h = 0; h < c.config.hosts; ++h) {
            const std::size_t relay = h * per_host + c.planeOf(src);
            for (std::size_t g = h * per_host; g < (h + 1) * per_host;
                 ++g) {
                const double tokens = (double)rng.nextBounded(4);
                if (h == c.hostOf(src)) {
                    add(src, g, tokens);
                } else {
                    add(src, relay, tokens);
                    add(relay, g, tokens);
                }
            }
        }
    }
    std::vector<Flow> flows;
    std::uint64_t qp = 0;
    for (const auto &[key, bytes] : agg)
        flows.push_back({key.first, key.second, bytes, qp++, {}, {}});
    return flows;
}

Cluster
smallMpft()
{
    ClusterConfig cfg;
    cfg.fabric = dsv3::net::Fabric::MPFT;
    cfg.hosts = 4;
    cfg.gpusPerHost = 4;
    cfg.planes = 4;
    cfg.switchRadix = 8;
    return buildCluster(cfg);
}

TEST(FlowSimEngineRun, DeepEpOnMpftMatchesReference)
{
    Cluster c = smallMpft();
    for (std::uint64_t seed : {3u, 17u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        auto flows = deepEpFlows(c, rng);
        assignPaths(c.graph, flows, RoutePolicy::ADAPTIVE);
        FlowSimResult sim = simulateFlows(c.graph, flows);
        EXPECT_GT(sim.epochs, 10u);
        expectSameRun(sim, referenceRun(c.graph, flows));
    }
}

TEST(FlowSimEngineRun, ResumeRoundMovesEarlierThanBefore)
{
    // Five flows into one sink port of capacity 12, each over its own
    // uplink of capacity 1, 2, 2.9, 20, 20. The first solve freezes
    // flow 0, 1 and 2 alone in rounds 0-2 on their uplinks, then flows
    // 3 and 4 together on the sink. Flow 2 finishes first (resume at
    // round 2), flow 0 second (resume at round 0): the second resume
    // reaches past the prefix the first one kept, where the sink's
    // logged active count still includes flow 2. Counts must be
    // rebuilt, not restored, or the sink over-counts and binds wrong.
    Graph g;
    const NodeId sw = g.addNode(NodeKind::LEAF, "sw");
    const NodeId sink = g.addNode(NodeKind::GPU, "sink");
    g.addEdge(sw, sink, 12.0, 1e-6);
    const double uplinks[] = {1.0, 2.0, 2.9, 20.0, 20.0};
    const double sizes[] = {2.0, 40.0, 2.9, 40.0, 40.0};
    std::vector<Flow> flows;
    for (std::size_t i = 0; i < 5; ++i) {
        const NodeId h = g.addNode(NodeKind::GPU, "h" + std::to_string(i));
        g.addEdge(h, sw, uplinks[i], 1e-6);
        flows.push_back({h, sink, sizes[i], i, {}, {}});
    }
    assignPaths(g, flows, RoutePolicy::ECMP);
    FlowSimResult sim = simulateFlows(g, flows);
    expectSameRun(sim, referenceRun(g, flows));
    EXPECT_EQ(sim.finishTimes[2], 1.0);
    EXPECT_EQ(sim.finishTimes[0], 2.0);
    EXPECT_LT(sim.finishTimes[0], sim.finishTimes[1]);
}

TEST(FlowSimEngineRun, SolveAfterDegradeMatchesFreshEngine)
{
    // A degrade-only fault changes capacities without rebinding any
    // flow; the next solve() or run() must see the new capacities.
    Cluster c = smallMpft();
    Rng rng(5);
    auto flows = deepEpFlows(c, rng);
    assignPaths(c.graph, flows, RoutePolicy::ADAPTIVE);
    FlowSimEngine solved(c.graph, flows);
    FlowSimEngine ran(c.graph, flows);
    for (FlowSimEngine *engine : {&solved, &ran}) {
        engine->solve();
        engine->removeFlow(0);
    }
    const std::vector<double> before = solved.solve();
    ran.solve();
    std::vector<NodeId> peers;
    for (EdgeId e : c.graph.outEdges(c.gpus[1]))
        peers.push_back(c.graph.edge(e).to);
    for (NodeId peer : peers)
        c.degradeLink(c.gpus[1], peer, 0.5);

    std::vector<Flow> survivors(flows.begin() + 1, flows.end());
    FlowSimEngine fresh(c.graph, survivors);
    const std::vector<double> expected = fresh.solve();
    const std::vector<double> &actual = solved.solve();
    for (std::size_t i = 1; i < flows.size(); ++i)
        EXPECT_EQ(actual[i], expected[i - 1]) << "flow " << i;
    EXPECT_NE(actual, before);

    FlowSimResult sim = ran.run();
    FlowSimResult ref = referenceRun(c.graph, survivors);
    EXPECT_EQ(sim.makespan, ref.makespan);
    EXPECT_EQ(sim.epochs, ref.epochs);
    for (std::size_t i = 1; i < flows.size(); ++i) {
        EXPECT_EQ(sim.rates[i], ref.rates[i - 1]) << "flow " << i;
        EXPECT_EQ(sim.finishTimes[i], ref.finishTimes[i - 1])
            << "flow " << i;
    }
}

TEST(FlowSimEngineRun, SolveAfterRebindMatchesFreshEngine)
{
    // detachFlow()/attachFlow() move a flow onto one of its paths;
    // the next solve() and run() must match an engine built on the
    // rewritten flow set.
    Fabric f = makeFabric(3, 2, 3);
    auto flows = allToAll(f);
    Rng rng(21);
    for (auto &fl : flows)
        fl.bytes = 20.0 + 100.0 * rng.nextDouble();
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    FlowSimEngine solved(f.g, flows);
    FlowSimEngine ran(f.g, flows);
    solved.solve();
    ran.solve();
    for (std::size_t i : {2u, 7u, 11u}) {
        ASSERT_GT(flows[i].paths.size(), 1u);
        solved.detachFlow(i);
        ran.detachFlow(i);
        flows[i].paths.resize(1);
        flows[i].weights.assign(1, 1.0);
        solved.attachFlow(i);
        ran.attachFlow(i);
    }
    FlowSimEngine fresh(f.g, flows);
    const std::vector<double> expected = fresh.solve();
    const std::vector<double> &actual = solved.solve();
    for (std::size_t i = 0; i < flows.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "flow " << i;
    expectSameRun(ran.run(), referenceRun(f.g, flows));
}

TEST(FlowSimEngineRun, RoundsReusedPlusSolvedEqualsFullSolves)
{
    // net.flow.rounds_reused counts the rounds each resumed solve
    // kept; net.flow.solver_iterations counts the rounds it redid.
    // Together they equal the rounds a full solve per epoch runs.
    Fabric f = makeFabric(2, 3, 2);
    auto flows = allToAll(f);
    Rng rng(29);
    for (auto &fl : flows)
        fl.bytes = 50.0 + 200.0 * rng.nextDouble();
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);

    // Full solve every epoch, stepping run()'s completion schedule.
    FlowSimResult sim = simulateFlows(f.g, flows);
    FlowSimEngine full(f.g, flows);
    std::vector<double> finish = sim.finishTimes;
    std::sort(finish.begin(), finish.end());
    finish.erase(std::unique(finish.begin(), finish.end()), finish.end());
    for (double t : finish) {
        full.solve();
        for (std::size_t i = 0; i < flows.size(); ++i)
            if (sim.finishTimes[i] == t)
                full.removeFlow(i);
    }
    ASSERT_EQ(finish.size(), sim.epochs);

    obs::setStatsEnabled(true);
    obs::Counter &reused =
        obs::Registry::global().counter("net.flow.rounds_reused");
    obs::Counter &solved =
        obs::Registry::global().counter("net.flow.solver_iterations");
    const std::uint64_t reused0 = reused.value();
    const std::uint64_t solved0 = solved.value();
    FlowSimResult again = simulateFlows(f.g, flows);
    EXPECT_EQ(again.solverIterations, solved.value() - solved0);
    EXPECT_GT(reused.value() - reused0, 0u);
    EXPECT_EQ(reused.value() - reused0 + solved.value() - solved0,
              full.solverIterations());
}

TEST(FlowSimEngineRunDeathTest, NanSizeIsRejected)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    flows[3].bytes = std::numeric_limits<double>::quiet_NaN();
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    EXPECT_DEATH(simulateFlows(f.g, flows),
                 "flow 3 \\([0-9]+->[0-9]+\\) has invalid size nan");
}

TEST(FlowSimEngineRunDeathTest, NegativeSizeIsRejected)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    flows[5].bytes = -1.0;
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    EXPECT_DEATH(simulateFlows(f.g, flows),
                 "flow 5 \\([0-9]+->[0-9]+\\) has invalid size -1");
}

TEST(FlowSimEngine, ObservabilityCounters)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    Rng rng(13);
    for (auto &fl : flows)
        fl.bytes = 10.0 + 90.0 * rng.nextDouble();
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto sim = simulateFlows(f.g, flows);
    // Staggered sizes force multiple completion epochs, each running
    // at least one bottleneck-freeze iteration.
    EXPECT_GT(sim.epochs, 1u);
    EXPECT_GE(sim.solverIterations, (std::uint64_t)sim.epochs);
}

TEST(FlowSimEngine, RemoveFlowIsIdempotent)
{
    Fabric f = makeFabric(2, 2, 2);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, RoutePolicy::ECMP);
    FlowSimEngine engine(f.g, flows);
    engine.removeFlow(0);
    engine.removeFlow(0);
    EXPECT_EQ(engine.activeFlows(), flows.size() - 1);
    EXPECT_FALSE(engine.flowActive(0));
    EXPECT_TRUE(engine.flowActive(1));
}

TEST(FlowSimEngine, SimulateMatchesWrapperPath)
{
    // simulateFlows() is a thin wrapper over FlowSimEngine::run();
    // an engine built and run by hand must agree with it exactly.
    Fabric f = makeFabric(2, 3, 2);
    auto flows = allToAll(f);
    assignPaths(f.g, flows, RoutePolicy::ADAPTIVE);
    auto a = simulateFlows(f.g, flows);
    FlowSimEngine engine(f.g, flows);
    auto b = engine.run();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.peakUtilization, b.peakUtilization);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_EQ(a.rates[i], b.rates[i]);
        EXPECT_EQ(a.finishTimes[i], b.finishTimes[i]);
    }
}

} // namespace
} // namespace dsv3::net
