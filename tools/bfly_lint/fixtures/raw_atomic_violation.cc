// bfly_lint fixture: lock-free state that -Wthread-safety cannot see. Every
// marked line must produce a raw-atomic finding; the justified cursor and
// the std::atomic mentioned in this comment must not. Never compiled.
#include <atomic>
#include <cstddef>

namespace butterfly {

struct Handshake {
  std::atomic<int> active{0};  // VIOLATION raw-atomic
  std::atomic_flag ready = ATOMIC_FLAG_INIT;  // VIOLATION raw-atomic
};

void Publish(Handshake* h, int* payload) {
  *payload = 7;
  h->active.store(1, std::memory_order_release);  // VIOLATION raw-atomic
}

int Peek(int* slot) {
  return std::atomic_ref<int>(*slot).load();  // VIOLATION raw-atomic
}

struct Cursor {
  // bfly-lint: allow(raw-atomic) fixture exercising the suppression path
  std::atomic<size_t> next{0};
};

}  // namespace butterfly
