/**
 * @file
 * Scripted chaos scenarios: a tiny text format describing a fault
 * schedule plus membership operations, keyed to workload op indices so
 * every run is deterministic from (scenario, seed). The harness in
 * chaos_runner.h executes a scenario against a full Kona stack; the
 * builtin library covers the gray-failure shapes the membership state
 * machine must survive (slow node, flapping link, one-directional
 * partition, live drain, hot-add rebalance).
 *
 * Text format, one directive per line ('#' starts a comment):
 *
 *   scenario slow-node          # header directives
 *   workload redis-rand
 *   nodes 3
 *   replication 1
 *   ops 1200
 *   scale 0.02
 *   @150 degrade 2 250000       # events: @<op> <verb> <node> [args]
 *   @150 nak 2 0.15
 *   @900 clear 2
 *
 * Event verbs:
 *   degrade <node> <ns>            constant extra latency per op
 *   nak <node> <p>                 write-payload CRC-failure rate
 *   drop <node> <p>                silent drop probability
 *   spike <node> <p> <ns>          tail-latency spike
 *   flap <node> <period> <down>    link flapping (ops on that node)
 *   burst <node> <period> <len>    back-to-back error bursts
 *   partition <node> from <src>    one-directional partial partition
 *   clear <node>                   reset the node's fault profile
 *   down <node> / up <node>        fail-stop toggle on the fabric
 *   drain <node>                   live decommission through the runtime
 *   hotadd <node>                  hot-add a spare node + rebalance
 *   shift <region>                 move the workload's hot working set
 *                                  to region index <region> (the node
 *                                  field carries the region; no fault
 *                                  is injected — harnesses that drive
 *                                  phase-shifting working sets, e.g.
 *                                  the placement ablation bench,
 *                                  interpret it)
 */

#ifndef KONA_CHAOS_CHAOS_SCENARIO_H
#define KONA_CHAOS_CHAOS_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace kona {

/** One scripted action, applied before workload op @ref ChaosEvent::atOp. */
enum class ChaosOp : std::uint8_t
{
    Degrade,     ///< slow node / straggler link
    NakInflate,  ///< write payloads corrupted past the transport
    Drop,        ///< silent packet loss
    Spike,       ///< tail-latency spikes
    Flap,        ///< periodic link flapping
    Burst,       ///< transient error bursts
    Partition,   ///< one-directional partial partition
    ClearFaults, ///< reset the node's fault profile
    NodeDown,    ///< fail-stop: mark the node down on the fabric
    NodeUp,      ///< fail-stop recovery
    Drain,       ///< membership: live decommission
    HotAdd,      ///< membership: hot-add + rebalance
    ShiftWorkingSet, ///< workload: jump the hot set to region <node>
};

/** One event of a scenario's schedule. Unused fields stay zero. */
struct ChaosEvent
{
    std::uint64_t atOp = 0;        ///< applied before this workload op
    ChaosOp op = ChaosOp::ClearFaults;
    NodeId node = 0;               ///< the node acted on
    NodeId peer = 0;               ///< Partition: the blocked source
    double p = 0.0;                ///< probability modes
    Tick ns = 0;                   ///< Degrade/Spike latency
    std::uint64_t a = 0;           ///< Flap/Burst period (ops)
    std::uint64_t b = 0;           ///< Flap down-ops / Burst length
};

/** A full scripted run: rack shape, workload, and event schedule. */
struct ChaosScenario
{
    std::string name = "unnamed";
    std::string workload = "redis-rand";
    std::size_t nodes = 3;          ///< initial memory nodes (ids 1..n)
    std::size_t replication = 1;    ///< extra copies per slab, <= 7
    std::uint64_t ops = 2000;       ///< workload ops to execute
    double scale = 0.1;             ///< workload footprint scale
                                    ///< (must exceed FMem so ops miss)
    std::vector<ChaosEvent> events;
};

/** Parse the text format above. Fatal on malformed input. */
ChaosScenario parseChaosScenario(const std::string &text);

/** Serialize back to the text format (parse/format round-trips). */
std::string formatChaosScenario(const ChaosScenario &scenario);

/**
 * The builtin scenario library: slow-node, flapping, partial-partition,
 * drain-under-load, hot-add-rebalance. Every entry must match its
 * fault-free oracle byte-for-byte across seeds.
 */
const std::vector<ChaosScenario> &builtinChaosScenarios();

} // namespace kona

#endif // KONA_CHAOS_CHAOS_SCENARIO_H
