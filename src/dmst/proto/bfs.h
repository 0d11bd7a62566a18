#ifndef DMST_PROTO_BFS_H
#define DMST_PROTO_BFS_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dmst/congest/network.h"

namespace dmst {

constexpr std::size_t kNoPort = ~std::size_t{0};

// Distributed synchronous BFS tree construction with echo, as used for the
// auxiliary tree τ of the Elkin algorithm ("This step requires O(D) time and
// O(|E|) messages").
//
// Protocol: the root floods EXPLORE waves carrying the sender depth; a
// vertex joins at its BFS distance, answers ACCEPT to its chosen parent
// (smallest port among the first-round explorers) and REJECT to all other
// explorers, then explores its remaining ports. When all ports are resolved
// and all children have echoed, a vertex ECHOes its subtree size and height
// to its parent. The root's echo completion implies global completion, with
// the vertex count and its eccentricity (the tree height) known at the root.
//
// Embeddable component: the owning Process calls on_round() every round;
// the builder reads only messages whose tag lies in its tag range
// [tag_base, tag_base+4) and sends only such messages.
class BfsBuilder {
public:
    // The builder stays idle until `start_round` (the root joins then;
    // non-roots join when explored). Tags used: tag_base+{0,1,2,3}.
    BfsBuilder(bool is_root, std::uint32_t tag_base, std::uint64_t start_round = 1);

    void on_round(Context& ctx);

    // The root's join round while it waits for it, else Context::kNoWakeup:
    // everything else the builder does reacts to a message.
    std::uint64_t next_wakeup() const
    {
        return is_root_ && !joined_ ? start_round_ : Context::kNoWakeup;
    }

    bool handles(std::uint32_t tag) const
    {
        return tag >= tag_base_ && tag < tag_base_ + 4;
    }

    // Local completion: this vertex has joined, resolved all ports, and
    // echoed (root: received all echoes). For the root this means the BFS
    // construction has globally terminated.
    bool finished() const { return finished_; }

    bool joined() const { return joined_; }
    std::uint32_t depth() const { return depth_; }
    std::size_t parent_port() const { return parent_port_; }
    const std::vector<std::size_t>& children_ports() const { return children_ports_; }

    // Valid once finished(): number of vertices / height of own subtree.
    std::uint64_t subtree_size() const { return subtree_size_; }
    std::uint32_t subtree_height() const { return subtree_height_; }

    // Subtree size below each child port (valid once finished()); used to
    // partition routing intervals among children.
    const std::unordered_map<std::size_t, std::uint64_t>& child_sizes() const
    {
        return child_sizes_;
    }

private:
    enum class PortState : std::uint8_t { Unknown, Parent, Child, NonChild };

    std::uint32_t tag_explore() const { return tag_base_ + 0; }
    std::uint32_t tag_accept() const { return tag_base_ + 1; }
    std::uint32_t tag_reject() const { return tag_base_ + 2; }
    std::uint32_t tag_echo() const { return tag_base_ + 3; }

    void join(Context& ctx, std::uint32_t depth, std::size_t parent_port);
    void maybe_echo(Context& ctx);

    bool is_root_;
    std::uint32_t tag_base_;
    std::uint64_t start_round_;

    bool joined_ = false;
    bool finished_ = false;
    std::uint32_t depth_ = 0;
    std::size_t parent_port_ = kNoPort;
    std::vector<PortState> ports_;  // sized on first on_round
    std::vector<std::size_t> children_ports_;
    std::size_t unresolved_ports_ = 0;
    std::size_t echoes_received_ = 0;
    std::unordered_map<std::size_t, std::uint64_t> child_sizes_;
    std::uint64_t subtree_size_ = 1;
    std::uint32_t subtree_height_ = 0;
    bool echo_sent_ = false;
};

}  // namespace dmst

#endif  // DMST_PROTO_BFS_H
