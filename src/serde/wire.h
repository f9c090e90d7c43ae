/**
 * @file
 * Compact binary wire format for RPC payloads.
 *
 * A protobuf-style encoding — LEB128 varints, zigzag signed integers,
 * little-endian fixed words, and length-delimited byte strings — but
 * with positional rather than tagged fields: every µSuite message type
 * encodes and decodes its fields in a fixed order, which is smaller and
 * faster than tagged encoding and adequate because both ends of every
 * RPC are built from this tree. Messages implement
 *
 *     void encode(WireWriter &out) const;
 *     bool decode(WireReader &in);
 *
 * Decoding never throws: readers carry a sticky failure flag that
 * callers check once at the end.
 */

#ifndef MUSUITE_SERDE_WIRE_H
#define MUSUITE_SERDE_WIRE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace musuite {

// --------------------------------------------------------------------
// Wire-buffer recycling pool.
//
// Every murpc frame is built in a std::string that travels encode →
// send queue → kernel and then dies; at steady state that is one
// malloc/free pair per message on the hot path. The pool recycles
// those buffers process-wide: acquire hands out an empty string that
// keeps a previously released buffer's capacity, release returns one
// after use. Oversized buffers (> ~1 MiB) and overflow beyond the pool
// cap are simply freed, so a burst of jumbo frames cannot pin memory.
// --------------------------------------------------------------------

/** Empty buffer, reusing pooled capacity when available. */
std::string acquireWireBuffer(size_t reserve = 0);

/** Recycle a spent buffer (contents discarded). */
void releaseWireBuffer(std::string &&buffer);

/** Serializer appending to an internal byte buffer. */
class WireWriter
{
  public:
    WireWriter() = default;

    /** Reuse `storage` (cleared) as the output buffer — pairs with
     *  acquireWireBuffer() for allocation-free steady-state encoding. */
    explicit WireWriter(std::string storage) : buffer(std::move(storage))
    {
        buffer.clear();
    }

    void putVarint(uint64_t value);
    void putZigzag(int64_t value);
    void putFixed32(uint32_t value);
    void putFixed64(uint64_t value);
    void putDouble(double value);
    void putFloat(float value);
    void putBool(bool value) { putVarint(value ? 1 : 0); }

    /** Length-delimited byte string. */
    void putBytes(std::string_view bytes);

    /** Length-delimited vector of varints. */
    void putVarintVector(const std::vector<uint64_t> &values);
    void putU32Vector(const std::vector<uint32_t> &values);

    /** Length-delimited packed floats (feature vectors). */
    void putFloatVector(const std::vector<float> &values);

    /** Length-delimited packed doubles. */
    void putDoubleVector(const std::vector<double> &values);

    /** Encode a nested message (length-delimited). */
    template <typename Message>
    void
    putMessage(const Message &msg)
    {
        WireWriter nested(acquireWireBuffer());
        msg.encode(nested);
        putBytes(nested.view());
        releaseWireBuffer(nested.take());
    }

    /** Encode a repeated nested message field. */
    template <typename Message>
    void
    putMessageVector(const std::vector<Message> &msgs)
    {
        putVarint(msgs.size());
        for (const auto &msg : msgs)
            putMessage(msg);
    }

    const std::string &str() const { return buffer; }
    std::string_view view() const { return buffer; }
    std::string take() { return std::move(buffer); }
    size_t size() const { return buffer.size(); }
    void clear() { buffer.clear(); }

  private:
    std::string buffer;
};

/** Deserializer over a borrowed byte view with a sticky error flag. */
class WireReader
{
  public:
    explicit WireReader(std::string_view data) : data(data) {}

    uint64_t getVarint();
    int64_t getZigzag();
    uint32_t getFixed32();
    uint64_t getFixed64();
    double getDouble();
    float getFloat();
    bool getBool() { return getVarint() != 0; }

    /** Borrowed view of a length-delimited byte string. */
    std::string_view getBytes();

    std::vector<uint64_t> getVarintVector();
    std::vector<uint32_t> getU32Vector();
    std::vector<float> getFloatVector();
    std::vector<double> getDoubleVector();

    template <typename Message>
    bool
    getMessage(Message &msg)
    {
        std::string_view bytes = getBytes();
        if (failed)
            return false;
        WireReader nested(bytes);
        if (!msg.decode(nested))
            failed = true;
        return !failed;
    }

    template <typename Message>
    std::vector<Message>
    getMessageVector()
    {
        const uint64_t count = getVarint();
        std::vector<Message> msgs;
        if (failed || count > remaining())
            return fail<std::vector<Message>>();
        msgs.resize(count);
        for (auto &msg : msgs) {
            if (!getMessage(msg))
                return {};
        }
        return msgs;
    }

    /** True iff no decode error has occurred so far. */
    bool ok() const { return !failed; }

    /** True iff ok and the whole input was consumed. */
    bool atEnd() const { return ok() && cursor == data.size(); }

    size_t remaining() const { return data.size() - cursor; }

  private:
    template <typename T>
    T
    fail()
    {
        failed = true;
        return T{};
    }

    std::string_view data;
    size_t cursor = 0;
    bool failed = false;
};

/** Serialize a message to a standalone string. The buffer comes from
 *  the wire pool; release it back after use to close the reuse loop. */
template <typename Message>
std::string
encodeMessage(const Message &msg)
{
    WireWriter out(acquireWireBuffer());
    msg.encode(out);
    return out.take();
}

/** Deserialize a message from a byte view; false on malformed input. */
template <typename Message>
bool
decodeMessage(std::string_view bytes, Message &msg)
{
    WireReader in(bytes);
    return msg.decode(in) && in.ok();
}

} // namespace musuite

#endif // MUSUITE_SERDE_WIRE_H
