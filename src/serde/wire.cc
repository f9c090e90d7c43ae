/**
 * @file
 * Implementation of the wire writer/reader.
 */

#include "serde/wire.h"

#include "base/threading.h"

namespace musuite {

namespace {

// Pool sizing: enough entries for every thread of a busy mid-tier to
// have a few buffers in flight, small enough that the pool itself is
// noise (128 × ≤1 MiB worst case, in practice a few KiB each).
constexpr size_t maxPooledBuffers = 128;
constexpr size_t maxPooledCapacity = 1u << 20;

Mutex poolMutex{LockRank::wirePool, "serde.wirepool"};
std::vector<std::string> pool GUARDED_BY(poolMutex);

} // namespace

std::string
acquireWireBuffer(size_t reserve)
{
    std::string out;
    {
        MutexLock lock(poolMutex);
        if (!pool.empty()) {
            out = std::move(pool.back());
            pool.pop_back();
        }
    }
    out.clear();
    if (reserve != 0)
        out.reserve(reserve);
    return out;
}

void
releaseWireBuffer(std::string &&buffer)
{
    // Small-string-optimized buffers carry no heap allocation worth
    // keeping; jumbo ones would pin memory. Pool only the middle.
    if (buffer.capacity() <= sizeof(std::string) ||
        buffer.capacity() > maxPooledCapacity)
        return;
    buffer.clear();
    MutexLock lock(poolMutex);
    if (pool.size() >= maxPooledBuffers)
        return;
    pool.push_back(std::move(buffer));
}

void
WireWriter::putVarint(uint64_t value)
{
    while (value >= 0x80) {
        buffer.push_back(char(uint8_t(value) | 0x80));
        value >>= 7;
    }
    buffer.push_back(char(uint8_t(value)));
}

void
WireWriter::putZigzag(int64_t value)
{
    putVarint((uint64_t(value) << 1) ^ uint64_t(value >> 63));
}

void
WireWriter::putFixed32(uint32_t value)
{
    char bytes[4];
    std::memcpy(bytes, &value, 4);
    buffer.append(bytes, 4);
}

void
WireWriter::putFixed64(uint64_t value)
{
    char bytes[8];
    std::memcpy(bytes, &value, 8);
    buffer.append(bytes, 8);
}

void
WireWriter::putDouble(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, 8);
    putFixed64(bits);
}

void
WireWriter::putFloat(float value)
{
    uint32_t bits;
    std::memcpy(&bits, &value, 4);
    putFixed32(bits);
}

void
WireWriter::putBytes(std::string_view bytes)
{
    putVarint(bytes.size());
    // Empty views may carry a null data(), which append() forbids.
    if (!bytes.empty())
        buffer.append(bytes.data(), bytes.size());
}

void
WireWriter::putVarintVector(const std::vector<uint64_t> &values)
{
    putVarint(values.size());
    for (uint64_t v : values)
        putVarint(v);
}

void
WireWriter::putU32Vector(const std::vector<uint32_t> &values)
{
    putVarint(values.size());
    for (uint32_t v : values)
        putVarint(v);
}

void
WireWriter::putFloatVector(const std::vector<float> &values)
{
    putVarint(values.size());
    const size_t bytes = values.size() * sizeof(float);
    if (bytes != 0)
        buffer.append(reinterpret_cast<const char *>(values.data()),
                      bytes);
}

void
WireWriter::putDoubleVector(const std::vector<double> &values)
{
    putVarint(values.size());
    const size_t bytes = values.size() * sizeof(double);
    if (bytes != 0)
        buffer.append(reinterpret_cast<const char *>(values.data()),
                      bytes);
}

uint64_t
WireReader::getVarint()
{
    uint64_t value = 0;
    int shift = 0;
    while (cursor < data.size() && shift < 64) {
        const uint8_t byte = uint8_t(data[cursor++]);
        value |= uint64_t(byte & 0x7F) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
    }
    return fail<uint64_t>();
}

int64_t
WireReader::getZigzag()
{
    const uint64_t encoded = getVarint();
    return int64_t(encoded >> 1) ^ -int64_t(encoded & 1);
}

uint32_t
WireReader::getFixed32()
{
    if (remaining() < 4)
        return fail<uint32_t>();
    uint32_t value;
    std::memcpy(&value, data.data() + cursor, 4);
    cursor += 4;
    return value;
}

uint64_t
WireReader::getFixed64()
{
    if (remaining() < 8)
        return fail<uint64_t>();
    uint64_t value;
    std::memcpy(&value, data.data() + cursor, 8);
    cursor += 8;
    return value;
}

double
WireReader::getDouble()
{
    const uint64_t bits = getFixed64();
    double value;
    std::memcpy(&value, &bits, 8);
    return value;
}

float
WireReader::getFloat()
{
    const uint32_t bits = getFixed32();
    float value;
    std::memcpy(&value, &bits, 4);
    return value;
}

std::string_view
WireReader::getBytes()
{
    const uint64_t length = getVarint();
    if (failed || length > remaining())
        return fail<std::string_view>();
    std::string_view bytes = data.substr(cursor, length);
    cursor += length;
    return bytes;
}

std::vector<uint64_t>
WireReader::getVarintVector()
{
    const uint64_t count = getVarint();
    if (failed || count > remaining())
        return fail<std::vector<uint64_t>>();
    std::vector<uint64_t> values(count);
    for (auto &v : values)
        v = getVarint();
    if (failed)
        return {};
    return values;
}

std::vector<uint32_t>
WireReader::getU32Vector()
{
    const uint64_t count = getVarint();
    if (failed || count > remaining())
        return fail<std::vector<uint32_t>>();
    std::vector<uint32_t> values(count);
    for (auto &v : values) {
        const uint64_t wide = getVarint();
        if (wide > UINT32_MAX)
            return fail<std::vector<uint32_t>>();
        v = uint32_t(wide);
    }
    if (failed)
        return {};
    return values;
}

std::vector<float>
WireReader::getFloatVector()
{
    const uint64_t count = getVarint();
    if (failed || count * sizeof(float) > remaining())
        return fail<std::vector<float>>();
    std::vector<float> values(count);
    // count == 0 gives null data() pointers, which memcpy forbids
    // even for zero-length copies.
    if (count != 0) {
        std::memcpy(values.data(), data.data() + cursor,
                    count * sizeof(float));
        cursor += count * sizeof(float);
    }
    return values;
}

std::vector<double>
WireReader::getDoubleVector()
{
    const uint64_t count = getVarint();
    if (failed || count * sizeof(double) > remaining())
        return fail<std::vector<double>>();
    std::vector<double> values(count);
    if (count != 0) {
        std::memcpy(values.data(), data.data() + cursor,
                    count * sizeof(double));
        cursor += count * sizeof(double);
    }
    return values;
}

} // namespace musuite
