#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace swh {

/// Fixed-capacity FIFO that overwrites the oldest element when full.
/// Used for the per-slave progress-notification window (the paper's
/// Omega history): only the newest `capacity` samples are retained.
template <typename T>
class RingBuffer {
public:
    explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
        SWH_REQUIRE(capacity > 0, "RingBuffer capacity must be positive");
    }

    std::size_t capacity() const { return buf_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == buf_.size(); }

    void push(const T& value) {
        buf_[(head_ + size_) % buf_.size()] = value;
        if (size_ == buf_.size()) {
            head_ = (head_ + 1) % buf_.size();  // drop the oldest
        } else {
            ++size_;
        }
    }

    /// i = 0 is the oldest retained element; i = size()-1 the newest.
    const T& operator[](std::size_t i) const {
        SWH_REQUIRE(i < size_, "RingBuffer index out of range");
        return buf_[(head_ + i) % buf_.size()];
    }

    const T& newest() const {
        SWH_REQUIRE(size_ > 0, "RingBuffer is empty");
        return (*this)[size_ - 1];
    }

    /// Copies contents oldest-to-newest into a flat vector.
    std::vector<T> to_vector() const {
        std::vector<T> out;
        out.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
        return out;
    }

    /// Doubles the capacity, keeping every element in order.
    void grow() {
        std::vector<T> bigger;
        bigger.reserve(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i) bigger.push_back((*this)[i]);
        bigger.resize(buf_.size() * 2);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    void clear() {
        head_ = 0;
        size_ = 0;
    }

private:
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace swh
