/**
 * @file
 * Flow-level network simulation.
 *
 * A Flow carries bytes from a source GPU to a destination GPU over one
 * or more paths. The routing policy decides the path set:
 *
 *  - ECMP: a hash of (src, dst, qp) selects exactly one of the
 *    equal-cost shortest paths. Collisions of large flows on one link
 *    are what Figure 8 shows degrading NCCL performance.
 *  - ADAPTIVE: the flow is split evenly across all equal-cost paths
 *    (idealized packet spraying).
 *  - STATIC: deterministic round-robin assignment of flows to paths in
 *    flow-creation order (a manually configured routing table).
 *
 * Rates come from max-min fair sharing (progressive water-filling) of
 * directed link capacities; completion uses an event loop that re-fills
 * whenever a flow finishes, so mixed-size flow sets are timed exactly
 * under the fluid model.
 *
 * The solver lives in FlowSimEngine, which keeps the subflow set and
 * the edge->subflow indices alive across completion epochs so a
 * finished flow is retired in O(paths) instead of rebuilding the whole
 * active set. maxMinRates()/simulateFlows() are thin wrappers over a
 * throwaway engine.
 *
 * The engine reports itself under "net.flow.*" in the stats registry
 * (solver iterations, rounds reused, heap pops, epochs, retired flows)
 * and brackets build/solve/run with trace spans; see DESIGN.md
 * "Observability".
 */

#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hh"

namespace dsv3::net {

enum class RoutePolicy
{
    ECMP,
    ADAPTIVE,
    STATIC,
};

const char *routePolicyName(RoutePolicy policy);

/** One unidirectional transfer. */
struct Flow
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double bytes = 0.0;
    std::uint64_t qp = 0; //!< queue-pair id; feeds the ECMP hash

    // Filled in by assignPaths():
    std::vector<Path> paths;      //!< one (ECMP/STATIC) or many
    std::vector<double> weights;  //!< fraction of traffic per path
};

/**
 * Populate flow.paths/weights for every flow.
 *
 * Candidate path sets come from the process RouteCache (canonical
 * sorted shortest-path sets shared across calls and sweeps); with the
 * cache disabled a call-local flat-hash store reproduces the same
 * sets. Selection (ECMP hash pick, ADAPTIVE even split, STATIC greedy
 * table) is per-call state either way, so results are byte-identical
 * whether the cache is cold, warm, or off.
 *
 * @param seed perturbs the ECMP hash (models switches hashing
 *        differently across runs); ignored by other policies.
 * @param unrouted when non-null, flows with no surviving route (a
 *        fault partitioned src from dst) are collected here with
 *        empty path sets instead of aborting the run; when null a
 *        missing route is a hard error as before.
 */
void assignPaths(const Graph &graph, std::vector<Flow> &flows,
                 RoutePolicy policy, std::uint64_t seed = 0,
                 std::vector<std::size_t> *unrouted = nullptr);

/** Result of a fluid simulation. */
struct FlowSimResult
{
    std::vector<double> rates;       //!< instantaneous first-epoch rate
    std::vector<double> finishTimes; //!< per-flow completion (seconds)
    double makespan = 0.0;           //!< last completion
    /** Peak utilization (rate/capacity) over all edges, first epoch. */
    double peakUtilization = 0.0;
    /** Completion epochs the event loop stepped through. */
    std::size_t epochs = 0;
    /**
     * Bottleneck-freeze rounds water-filled across all solves; a
     * resumed solve counts only the rounds it redid.
     */
    std::uint64_t solverIterations = 0;
};

/**
 * Incremental max-min fair solver over a fixed flow set.
 *
 * The engine is built once from a graph and a routed flow set (call
 * assignPaths() first). It indexes every (flow, path) subflow by the
 * edges it crosses, and keeps per-edge active-subflow counts up to
 * date as flows are retired with removeFlow(). Each solve() water-fills
 * only the live subflows, finding successive bottleneck edges with a
 * lazy min-heap keyed by fair share instead of rescanning every edge
 * per iteration. Rates are bit-identical to the classic full rescan:
 * the heap pops (share, edge) in the same (smallest share, smallest
 * edge id) order the linear scan selects, and subflows freeze in the
 * same construction order, so the floating-point operation sequence is
 * unchanged.
 *
 * The graph and flow vector must outlive the engine; the flows' path
 * sets must not change while the engine is alive, except through the
 * detachFlow()/attachFlow() rebinding protocol (fault failover).
 * Capacity changes on the graph (fault injection) are picked up by
 * the next solve(), which re-reads every live edge's capacity.
 */
class FlowSimEngine
{
  public:
    FlowSimEngine(const Graph &graph, const std::vector<Flow> &flows);

    /**
     * Max-min rates for the currently active flows. Active local flows
     * (src == dst, every path empty) get infinity; retired flows get 0.
     * The reference stays valid until the next solve().
     */
    const std::vector<double> &solve();

    /** Retire a flow, releasing its subflows in O(total path length). */
    void removeFlow(std::size_t flow);

    /**
     * Release a live flow's subflows without retiring the flow, so
     * the caller may rewrite its path set (fault failover). Call
     * sequence: detachFlow(i); mutate flows[i].paths/weights;
     * attachFlow(i). The engine copies path edges into its own pool
     * at attach time, so the caller's Path objects are free to go
     * away at any point after attachFlow() returns.
     */
    void detachFlow(std::size_t flow);

    /**
     * Index a detached flow's (new) path set into the engine. The
     * next solve() water-fills the rerouted subflows incrementally --
     * retired flows stay retired, untouched flows keep their subflow
     * order, and the result is bit-identical to rebuilding the engine
     * from scratch over the same live flow set.
     */
    void attachFlow(std::size_t flow);

    /**
     * Flow ids (ascending) of active attached flows that cross at
     * least one zero-capacity edge -- exactly the flows flowBroken()
     * would flag -- found by walking the downed edges' subflow lists
     * instead of rescanning every flow's whole path set. Failover
     * calls this after fault injection, where downed edges are few.
     */
    void collectBrokenFlows(std::vector<std::size_t> &out);

    bool flowActive(std::size_t flow) const { return alive_[flow]; }
    std::size_t activeFlows() const { return active_flows_; }
    std::size_t subflowCount() const { return sub_flow_.size(); }
    std::uint64_t solverIterations() const { return iterations_; }

    /**
     * Fluid-model completion times for all still-active flows:
     * repeatedly solve, advance to the next completion, retire the
     * finished flows. Consumes the engine's active set. Every active
     * flow's bytes must be finite and non-negative.
     *
     * After the first epoch each solve resumes the previous one's
     * water-fill from the first round a just-retired flow froze in
     * (see resume()); rates stay bit-identical to a full solve().
     */
    FlowSimResult run();

  private:
    /** Re-derive the edge CSR from the live subflows. */
    void rebuildEdgeIndex();

    /**
     * Re-solve after retirements alone, rewinding the last solve to
     * the start of its round `round` -- the earliest round any
     * retired flow froze in. Rounds before that replay bit for bit
     * (retiring only raises the (share, edge) keys of the retired
     * flows' edges, and no such edge was a bottleneck while they were
     * unfrozen), so their outcome is kept and only the rest is
     * water-filled again. Private to run(): a capacity change,
     * detachFlow()/attachFlow() or an edge-index rebuild since the
     * last solve would make the prefix stale, and public solve()
     * always starts from scratch.
     */
    const std::vector<double> &resume(std::uint32_t round);

    /**
     * Progressive filling from the current residual_/scratch_active_
     * state until `unfrozen` more subflows are frozen, appending each
     * round to the round log. heap_ must hold a current entry for
     * every edge with an unfrozen subflow, in any order. Flushes the
     * solve's stats; `reused` is the rounds kept from the last solve.
     */
    void waterFill(std::size_t unfrozen, std::size_t reused);

    const Graph &graph_;
    const std::vector<Flow> &flows_;

    // SoA subflow storage: parallel per-subflow arrays plus one flat
    // edge pool, so the water-fill inner loop (freeze a subflow, walk
    // its edges) reads contiguous memory instead of chasing Path
    // pointers. sub_edges_[sub_edge_begin_[s] .. sub_edge_end_[s])
    // are subflow s's edges, in path order.
    std::vector<std::uint32_t> sub_flow_;       //!< subflow -> flow
    std::vector<std::uint32_t> sub_edge_begin_; //!< pool range start
    std::vector<std::uint32_t> sub_edge_end_;   //!< pool range end
    std::vector<EdgeId> sub_edges_;             //!< flat edge pool
    /**
     * flow -> contiguous subflow-id range [begin, end). A flow's
     * subflows are always consecutive ids: the constructor emits them
     * flow by flow and attachFlow() appends at the tail, so two
     * offset arrays replace a vector-of-vectors (engines are rebuilt
     * per sweep scenario, and the per-flow heap allocations were a
     * measurable slice of construction).
     */
    std::vector<std::uint32_t> flow_sub_begin_;
    std::vector<std::uint32_t> flow_sub_end_;
    /**
     * edge -> subflow ids crossing it, as CSR segments over one flat
     * pool: edge_sub_pool_[edge_sub_begin_[e] .. +edge_sub_count_[e])
     * in insertion (ascending-id) order. solve()'s lazy compaction
     * shrinks a segment's count in place. attachFlow() does not
     * splice into segments (that copies whole segments and goes
     * quadratic under a failover wave); it flips edge_index_dirty_
     * and the next solve()/collectBrokenFlows() calls
     * rebuildEdgeIndex(), one O(live) pass that re-scatters the live
     * subflows in ascending-id order -- the same live subsequence an
     * incremental edge list would hold.
     */
    std::vector<std::uint32_t> edge_sub_begin_;
    std::vector<std::uint32_t> edge_sub_count_;
    std::vector<std::uint32_t> edge_sub_pool_;
    bool edge_index_dirty_ = false;
    /** Edges crossed by at least one subflow, ascending. */
    std::vector<EdgeId> used_edges_;
    /** Live-subflow count per edge, kept current by removeFlow(). */
    std::vector<std::uint32_t> active_on_edge_;

    std::vector<bool> alive_;      //!< per flow
    std::vector<bool> sub_alive_;  //!< per subflow (rebind/retire)
    std::vector<bool> local_;      //!< per flow: every path empty
    std::size_t active_flows_ = 0;
    std::size_t active_subflows_ = 0;
    std::uint64_t iterations_ = 0;

    std::vector<double> rates_;    //!< per flow, filled by solve()

    // Scratch reused across solves (sized once).
    std::vector<double> residual_;
    std::vector<double> sub_rate_;             //!< per subflow
    std::vector<std::uint32_t> scratch_active_;
    std::vector<std::uint32_t> frozen_stamp_;  //!< per subflow
    std::uint32_t solve_stamp_ = 0;
    /** Dedups heap refreshes per freeze round (one push per edge). */
    std::vector<std::uint32_t> touch_stamp_;
    std::uint32_t touch_round_ = 0;
    /**
     * Bottleneck-candidate heap storage, reused across solves so the
     * epoch loop in run() never reallocates it. (share, edge) pairs
     * are totally ordered -- edge ids are unique -- so any binary
     * min-heap over them pops the exact same sequence; keeping the
     * backing vector warm changes nothing but the allocation count.
     */
    std::vector<std::pair<double, EdgeId>> heap_;
    /** Edges touched by the current freeze round (solve scratch). */
    std::vector<EdgeId> touched_;

    // Round log of the last solve, read by resume(). Round r froze
    // freeze_log_[round_begin_[r] .. round_begin_[r + 1]) in that
    // order. undo_log_ holds, for each freeze-log subflow and each of
    // its edges in path order, the edge's residual just before the
    // freeze subtracted from it, so rewinding is a reverse replay.
    std::vector<std::uint32_t> round_begin_;
    std::vector<std::uint32_t> freeze_log_;
    std::vector<double> undo_log_;
    std::vector<std::uint32_t> sub_round_; //!< per subflow: its round
};

/**
 * Max-min fair rates for the given flows (single epoch; ignores
 * bytes). rates[i] is flow i's total rate across its paths.
 */
std::vector<double> maxMinRates(const Graph &graph,
                                const std::vector<Flow> &flows);

/**
 * Fluid-model completion times: repeatedly compute max-min rates,
 * advance to the next flow completion, release its capacity.
 */
FlowSimResult simulateFlows(const Graph &graph,
                            const std::vector<Flow> &flows);

} // namespace dsv3::net
