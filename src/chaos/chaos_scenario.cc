#include "chaos/chaos_scenario.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "fpga/remote_translation.h"

namespace kona {

namespace {

/** Split one line into whitespace-separated tokens, dropping comments. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) {
        if (tok[0] == '#')
            break;
        tokens.push_back(tok);
    }
    return tokens;
}

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    try {
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(s, &pos);
        if (pos != s.size())
            fatal("chaos scenario: bad ", what, " \"", s, "\"");
        return v;
    } catch (const std::exception &) {
        fatal("chaos scenario: bad ", what, " \"", s, "\"");
    }
}

double
parseF64(const std::string &s, const char *what)
{
    try {
        std::size_t pos = 0;
        double v = std::stod(s, &pos);
        if (pos != s.size())
            fatal("chaos scenario: bad ", what, " \"", s, "\"");
        return v;
    } catch (const std::exception &) {
        fatal("chaos scenario: bad ", what, " \"", s, "\"");
    }
}

void
requireArgs(const std::vector<std::string> &t, std::size_t n)
{
    if (t.size() != n)
        fatal("chaos scenario: event \"", t.empty() ? "" : t[1],
              "\" expects ", n - 3, " argument(s) after the node");
}

ChaosEvent
parseEvent(const std::vector<std::string> &t)
{
    // t = ["@<op>", "<verb>", "<node>", args...]
    if (t.size() < 3)
        fatal("chaos scenario: truncated event line");
    ChaosEvent ev;
    ev.atOp = parseU64(t[0].substr(1), "op index");
    ev.node = static_cast<NodeId>(parseU64(t[2], "node id"));
    const std::string &verb = t[1];
    if (verb == "degrade") {
        requireArgs(t, 4);
        ev.op = ChaosOp::Degrade;
        ev.ns = parseU64(t[3], "degrade ns");
    } else if (verb == "nak") {
        requireArgs(t, 4);
        ev.op = ChaosOp::NakInflate;
        ev.p = parseF64(t[3], "nak probability");
    } else if (verb == "drop") {
        requireArgs(t, 4);
        ev.op = ChaosOp::Drop;
        ev.p = parseF64(t[3], "drop probability");
    } else if (verb == "spike") {
        requireArgs(t, 5);
        ev.op = ChaosOp::Spike;
        ev.p = parseF64(t[3], "spike probability");
        ev.ns = parseU64(t[4], "spike ns");
    } else if (verb == "flap") {
        requireArgs(t, 5);
        ev.op = ChaosOp::Flap;
        ev.a = parseU64(t[3], "flap period");
        ev.b = parseU64(t[4], "flap down ops");
    } else if (verb == "burst") {
        requireArgs(t, 5);
        ev.op = ChaosOp::Burst;
        ev.a = parseU64(t[3], "burst period");
        ev.b = parseU64(t[4], "burst length");
    } else if (verb == "partition") {
        requireArgs(t, 5);
        if (t[3] != "from")
            fatal("chaos scenario: partition syntax is "
                  "\"partition <node> from <source>\"");
        ev.op = ChaosOp::Partition;
        ev.peer = static_cast<NodeId>(parseU64(t[4], "source node"));
    } else if (verb == "clear") {
        requireArgs(t, 3);
        ev.op = ChaosOp::ClearFaults;
    } else if (verb == "down") {
        requireArgs(t, 3);
        ev.op = ChaosOp::NodeDown;
    } else if (verb == "up") {
        requireArgs(t, 3);
        ev.op = ChaosOp::NodeUp;
    } else if (verb == "drain") {
        requireArgs(t, 3);
        ev.op = ChaosOp::Drain;
    } else if (verb == "hotadd") {
        requireArgs(t, 3);
        ev.op = ChaosOp::HotAdd;
    } else if (verb == "shift") {
        requireArgs(t, 3);
        ev.op = ChaosOp::ShiftWorkingSet;
    } else {
        fatal("chaos scenario: unknown event verb \"", verb, "\"");
    }
    return ev;
}

std::string
formatEvent(const ChaosEvent &ev)
{
    char buf[128];
    auto head = [&](const char *verb) {
        return std::snprintf(buf, sizeof(buf), "@%llu %s %u",
                             static_cast<unsigned long long>(ev.atOp),
                             verb, ev.node);
    };
    int n = 0;
    switch (ev.op) {
    case ChaosOp::Degrade:
        n = head("degrade");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %llu",
                      static_cast<unsigned long long>(ev.ns));
        break;
    case ChaosOp::NakInflate:
        n = head("nak");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %g", ev.p);
        break;
    case ChaosOp::Drop:
        n = head("drop");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %g", ev.p);
        break;
    case ChaosOp::Spike:
        n = head("spike");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %g %llu", ev.p,
                      static_cast<unsigned long long>(ev.ns));
        break;
    case ChaosOp::Flap:
        n = head("flap");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %llu %llu",
                      static_cast<unsigned long long>(ev.a),
                      static_cast<unsigned long long>(ev.b));
        break;
    case ChaosOp::Burst:
        n = head("burst");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " %llu %llu",
                      static_cast<unsigned long long>(ev.a),
                      static_cast<unsigned long long>(ev.b));
        break;
    case ChaosOp::Partition:
        n = head("partition");
        std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                      " from %u", ev.peer);
        break;
    case ChaosOp::ClearFaults:
        head("clear");
        break;
    case ChaosOp::NodeDown:
        head("down");
        break;
    case ChaosOp::NodeUp:
        head("up");
        break;
    case ChaosOp::Drain:
        head("drain");
        break;
    case ChaosOp::HotAdd:
        head("hotadd");
        break;
    case ChaosOp::ShiftWorkingSet:
        head("shift");
        break;
    }
    return buf;
}

} // namespace

ChaosScenario
parseChaosScenario(const std::string &text)
{
    ChaosScenario sc;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::vector<std::string> t = tokenize(line);
        if (t.empty())
            continue;
        if (t[0][0] == '@') {
            sc.events.push_back(parseEvent(t));
            continue;
        }
        if (t.size() != 2)
            fatal("chaos scenario: directive \"", t[0],
                  "\" expects exactly one value");
        if (t[0] == "scenario")
            sc.name = t[1];
        else if (t[0] == "workload")
            sc.workload = t[1];
        else if (t[0] == "nodes")
            sc.nodes = parseU64(t[1], "node count");
        else if (t[0] == "replication") {
            sc.replication = parseU64(t[1], "replication");
            if (sc.replication > RemoteCopies::maxReplicas)
                fatal("chaos scenario: replication ", sc.replication,
                      " exceeds the limit of ",
                      RemoteCopies::maxReplicas);
        }
        else if (t[0] == "ops")
            sc.ops = parseU64(t[1], "op budget");
        else if (t[0] == "scale")
            sc.scale = parseF64(t[1], "scale");
        else
            fatal("chaos scenario: unknown directive \"", t[0], "\"");
    }
    return sc;
}

std::string
formatChaosScenario(const ChaosScenario &sc)
{
    std::ostringstream os;
    os << "scenario " << sc.name << "\n"
       << "workload " << sc.workload << "\n"
       << "nodes " << sc.nodes << "\n"
       << "replication " << sc.replication << "\n"
       << "ops " << sc.ops << "\n"
       << "scale " << sc.scale << "\n";
    for (const ChaosEvent &ev : sc.events)
        os << formatEvent(ev) << "\n";
    return os.str();
}

const std::vector<ChaosScenario> &
builtinChaosScenarios()
{
    static const std::vector<ChaosScenario> scenarios = [] {
        std::vector<ChaosScenario> all;

        // A straggler memory node: every op completes, just slowly,
        // and its write payloads start failing the end-to-end CRC.
        // The health scorer must move it to Suspect so reads hedge to
        // replicas, then readmit it once the degradation clears.
        all.push_back(parseChaosScenario(R"(
            scenario slow-node
            workload redis-rand
            @300 degrade 2 250000
            @300 nak 2 0.15
            @1500 clear 2
        )"));

        // A flapping link: periodically times out for a burst of ops,
        // then recovers — the classic gray failure a binary up/down
        // detector thrashes on.
        all.push_back(parseChaosScenario(R"(
            scenario flapping
            workload redis-rand
            @200 flap 1 250 30
            @1600 clear 1
        )"));

        // One-directional partial partition: the compute node (id 0)
        // cannot reach node 2, while node 2 stays healthy for everyone
        // else. Reads must hedge to replicas; evictions that cannot
        // deliver node 2's copy mark it stale so reads avoid it until
        // a later eviction freshens the copy after the heal.
        all.push_back(parseChaosScenario(R"(
            scenario partial-partition
            workload redis-rand
            @300 partition 2 from 0
            @1200 clear 2
        )"));

        // Live drain: decommission a node mid-run while it still holds
        // hot data. Zero pages may be lost and the workload keeps
        // serving throughout.
        all.push_back(parseChaosScenario(R"(
            scenario drain-under-load
            workload redis-rand
            @800 drain 2
        )"));

        // Hot-add: a spare node joins mid-run, gets warmed with its
        // fair share of existing copies, and only then takes traffic.
        all.push_back(parseChaosScenario(R"(
            scenario hot-add-rebalance
            workload redis-rand
            @800 hotadd 4
        )"));

        return all;
    }();
    return scenarios;
}

} // namespace kona
