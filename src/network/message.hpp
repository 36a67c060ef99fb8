/**
 * @file
 * Base message type and consumer interface for the interconnect.
 */

#ifndef NEO_NETWORK_MESSAGE_HPP
#define NEO_NETWORK_MESSAGE_HPP

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "sim/types.hpp"

namespace neo
{

/**
 * A unit of transfer on the interconnect. Protocol layers derive from
 * this to add coherence payloads; the network only needs source,
 * destination and size.
 */
struct Message
{
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint32_t sizeBytes = 8;

    /**
     * Network-assigned send identity (0 until first offered). A
     * fault-injected duplicate shares its original's id, so ingress
     * dedup filters see transport copies, never distinct sends.
     */
    std::uint64_t msgId = 0;

    virtual ~Message() = default;

    /** Human-readable tag for traces. */
    virtual std::string describe() const { return "Message"; }

    /** Deep copy for fault-injected duplication. */
    virtual std::unique_ptr<Message>
    clone() const
    {
        return std::make_unique<Message>(*this);
    }
};

using MessagePtr = std::unique_ptr<Message>;

/** Stream a message's trace tag (formats only when streamed). */
inline std::ostream &
operator<<(std::ostream &os, const Message &m)
{
    return os << m.describe();
}

/** Endpoint that accepts delivered messages. */
class MessageConsumer
{
  public:
    virtual ~MessageConsumer() = default;

    /** Called by the network when a message arrives at this node. */
    virtual void deliver(MessagePtr msg) = 0;
};

} // namespace neo

#endif // NEO_NETWORK_MESSAGE_HPP
