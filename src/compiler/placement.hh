/**
 * @file
 * Static instruction placement (the EDGE "scheduler"): maps each of
 * a block's instruction slots onto a node of the execution grid,
 * subject to per-node capacity, minimising expected operand-network
 * hops. Placement quality directly affects simulated performance, so
 * the placer mirrors the greedy list scheduler used by the TRIPS
 * toolchain: topological order, pick the cheapest node with free
 * capacity, cost = distance to producers + distance to the register
 * file row for reads + distance to the LSQ column for memory ops +
 * a load-balance term.
 *
 * A placement is a pure function of (block, geometry), so it also
 * carries everything the core would otherwise re-derive per dynamic
 * block or per message: each slot's reservation-station index on its
 * node, the block's node mask and every target's mesh position.
 */

#ifndef EDGE_COMPILER_PLACEMENT_HH
#define EDGE_COMPILER_PLACEMENT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/block.hh"

namespace edge::compiler {

/**
 * A position on the operand mesh. The register file is a row above
 * the grid (mesh row 0) and the LSQ / D-cache banks a column left of
 * it (mesh column 0), so grid node (r, c) sits at mesh (r + 1, c + 1).
 */
struct MeshPos
{
    std::uint16_t row = 0;
    std::uint16_t col = 0;
};

/** Geometry of the execution substrate the placer targets. */
struct GridGeom
{
    unsigned rows = 4;
    unsigned cols = 4;
    unsigned slotsPerNode = 8; ///< per frame; rows*cols*slots >= 128

    unsigned numNodes() const { return rows * cols; }
    unsigned nodeId(unsigned r, unsigned c) const { return r * cols + c; }
    unsigned rowOf(unsigned node) const { return node / cols; }
    unsigned colOf(unsigned node) const { return node % cols; }

    /** Mesh position of grid node `node`. */
    MeshPos
    nodePos(unsigned node) const
    {
        return {static_cast<std::uint16_t>(rowOf(node) + 1),
                static_cast<std::uint16_t>(colOf(node) + 1)};
    }

    /** Mesh position of the register bank holding `reg` (row 0). */
    MeshPos
    regPos(unsigned reg) const
    {
        return {0, static_cast<std::uint16_t>(reg % cols + 1)};
    }
};

/** Result: execution-grid node of every instruction slot. */
struct Placement
{
    /** Mesh positions of one producer's targets (unused: {0, 0}). */
    using Dests = std::array<MeshPos, isa::kMaxTargets>;

    std::vector<std::uint16_t> nodeOf; ///< indexed by SlotId
    /**
     * Indexed by SlotId: the slot's reservation-station index on its
     * node, counting the node's slots in slot order.
     */
    std::vector<std::uint16_t> localOf;

    /** Instructions mapped to each node (for capacity checks). */
    std::vector<unsigned> perNodeCount;

    /** Bit n set iff some slot sits on node n (nodes 0..63 only). */
    std::uint64_t nodeMask = 0;

    /**
     * Indexed by SlotId, then target: where the target's messages go,
     * the consumer's node for an operand, the register bank for a
     * write.
     */
    std::vector<Dests> instDest;
    /** Indexed by register read, then target; as instDest. */
    std::vector<Dests> readDest;
};

/**
 * Place one block onto the grid.
 *
 * The register file occupies a virtual row above row 0 (reads enter
 * at the top); the LSQ / D-cache banks occupy a virtual column left
 * of column 0 (memory requests exit to the left, replies return from
 * the left). Deterministic: equal-cost candidates break ties toward
 * the lowest node id.
 */
Placement placeBlock(const isa::Block &block, const GridGeom &geom);

/** Manhattan distance between two grid nodes. */
unsigned gridDistance(const GridGeom &geom, unsigned a, unsigned b);

} // namespace edge::compiler

#endif // EDGE_COMPILER_PLACEMENT_HH
