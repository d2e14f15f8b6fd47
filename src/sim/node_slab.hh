/**
 * @file
 * Chunked node slab with an intrusive LIFO free list.
 *
 * The event queue's pending events and the CPU model's queued tasks
 * both live in nodes carved from fixed-size chunks. A freed node goes
 * to the head of the free list and is the next one handed out, so a
 * steady schedule/dispatch (or post/run) churn keeps reusing the same
 * few cache-warm nodes instead of sweeping a large buffer. Chunks are
 * never returned and never move: a node stays valid while its owner
 * holds it, even if the slab grows meanwhile (a running closure may
 * allocate more nodes). Destroying the slab destroys every node,
 * including whatever closure a still-pending node holds.
 *
 * Node must be default-constructible and have a `Node *next` member,
 * which the slab owns while the node is free.
 */

#ifndef FSIM_SIM_NODE_SLAB_HH
#define FSIM_SIM_NODE_SLAB_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace fsim
{

template <typename Node, std::size_t ChunkNodes>
class NodeSlab
{
  public:
    /** The most recently freed node, else one from a fresh chunk. Its
     *  `next` is stale; every other field is as its last owner left it. */
    Node *
    alloc()
    {
        if (!freeList_)
            grow();
        Node *n = freeList_;
        freeList_ = n->next;
        return n;
    }

    /** Return @p n; the caller has already dropped what it holds. */
    void
    release(Node *n)
    {
        n->next = freeList_;
        freeList_ = n;
    }

    /** Nodes carved so far, live or free. */
    std::size_t capacity() const { return chunks_.size() * ChunkNodes; }

  private:
    void
    grow()
    {
        // In steady state the free list recycles and this never runs.
        chunks_.push_back(std::make_unique<Node[]>(ChunkNodes));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = 0; i + 1 < ChunkNodes; ++i)
            chunk[i].next = &chunk[i + 1];
        chunk[ChunkNodes - 1].next = nullptr;
        freeList_ = chunk;
    }

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *freeList_ = nullptr;
};

} // namespace fsim

#endif // FSIM_SIM_NODE_SLAB_HH
