#include "compiler/placement.hh"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.hh"

namespace edge::compiler {

unsigned
gridDistance(const GridGeom &geom, unsigned a, unsigned b)
{
    unsigned ra = geom.rowOf(a), ca = geom.colOf(a);
    unsigned rb = geom.rowOf(b), cb = geom.colOf(b);
    return (ra > rb ? ra - rb : rb - ra) + (ca > cb ? ca - cb : cb - ca);
}

Placement
placeBlock(const isa::Block &block, const GridGeom &geom)
{
    const auto &insts = block.insts();
    const std::size_t n = insts.size();
    const unsigned nodes = geom.numNodes();
    panic_if(static_cast<std::size_t>(nodes) * geom.slotsPerNode < n,
             "grid too small: %zu insts, %u capacity", n,
             nodes * geom.slotsPerNode);

    // Build the intra-block producer lists and a topological order.
    std::vector<std::vector<SlotId>> producers(n);
    std::vector<unsigned> indeg(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto &t : insts[i].targets) {
            if (t.kind == isa::TargetKind::Operand) {
                producers[t.index].push_back(static_cast<SlotId>(i));
                ++indeg[t.index];
            }
        }
    }
    // Slots fed by register reads are marked so they prefer the top
    // row (operands arrive from the register file above row 0).
    std::vector<bool> read_fed(n, false);
    for (const auto &rd : block.reads())
        for (const auto &t : rd.targets)
            if (t.kind == isa::TargetKind::Operand)
                read_fed[t.index] = true;

    std::vector<SlotId> topo;
    topo.reserve(n);
    std::priority_queue<SlotId, std::vector<SlotId>,
                        std::greater<SlotId>> ready;
    for (std::size_t i = 0; i < n; ++i)
        if (indeg[i] == 0)
            ready.push(static_cast<SlotId>(i));
    {
        // Kahn's algorithm; deterministic via the min-heap.
        std::vector<unsigned> deg = indeg;
        while (!ready.empty()) {
            SlotId s = ready.top();
            ready.pop();
            topo.push_back(s);
            for (const auto &t : insts[s].targets) {
                if (t.kind == isa::TargetKind::Operand &&
                    --deg[t.index] == 0) {
                    ready.push(t.index);
                }
            }
        }
    }
    panic_if(topo.size() != n,
             "block %s: dataflow graph has a cycle (placement)",
             block.name().c_str());

    constexpr double kWProducer = 1.0;  ///< hops from each producer
    constexpr double kWMem = 0.8;       ///< pull memory ops left
    constexpr double kWRead = 0.6;      ///< pull read-fed insts up
    constexpr double kWBalance = 0.7;   ///< spread issue pressure

    Placement out;
    out.nodeOf.assign(n, 0);
    out.perNodeCount.assign(nodes, 0);

    for (SlotId s : topo) {
        double best_cost = 0;
        int best_node = -1;
        for (unsigned cand = 0; cand < nodes; ++cand) {
            if (out.perNodeCount[cand] >= geom.slotsPerNode)
                continue;
            unsigned r = geom.rowOf(cand), c = geom.colOf(cand);
            double cost = kWBalance * out.perNodeCount[cand];
            for (SlotId p : producers[s])
                cost += kWProducer * gridDistance(geom, out.nodeOf[p],
                                                  cand);
            if (isa::isMem(insts[s].op))
                cost += kWMem * (c + 1); // LSQ sits left of column 0
            if (read_fed[s])
                cost += kWRead * (r + 1); // RF sits above row 0
            if (best_node < 0 || cost < best_cost) {
                best_cost = cost;
                best_node = static_cast<int>(cand);
            }
        }
        panic_if(best_node < 0, "no free node (capacity bug)");
        out.nodeOf[s] = static_cast<std::uint16_t>(best_node);
        ++out.perNodeCount[best_node];
    }

    // Decode what the core needs per dynamic block and per message.
    std::vector<std::uint16_t> fill(nodes, 0);
    out.localOf.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        unsigned node = out.nodeOf[s];
        out.localOf[s] = fill[node]++;
        if (node < 64)
            out.nodeMask |= std::uint64_t{1} << node;
    }
    auto dests = [&](const std::array<isa::Target, isa::kMaxTargets> &ts) {
        Placement::Dests d{};
        for (unsigned k = 0; k < isa::kMaxTargets; ++k) {
            if (ts[k].kind == isa::TargetKind::Operand)
                d[k] = geom.nodePos(out.nodeOf[ts[k].index]);
            else if (ts[k].kind == isa::TargetKind::RegWrite)
                d[k] = geom.regPos(block.writes()[ts[k].index].reg);
        }
        return d;
    };
    out.instDest.reserve(n);
    for (const isa::Instruction &in : insts)
        out.instDest.push_back(dests(in.targets));
    out.readDest.reserve(block.reads().size());
    for (const isa::RegRead &rd : block.reads())
        out.readDest.push_back(dests(rd.targets));
    return out;
}

} // namespace edge::compiler
