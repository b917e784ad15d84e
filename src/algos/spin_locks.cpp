#include "algos/spin_locks.h"

// NOTE on style: GCC 12 miscompiles `co_await` expressions that appear
// inside condition expressions (the temporary awaiter is not kept alive
// across the suspension). Throughout src/algos, every co_await is therefore
// a standalone statement or a variable initializer — do not "simplify" the
// loops below into `while (co_await ...)` form.

namespace tpa::algos {

TasLock::TasLock(Simulator& sim, bool release_fence)
    : lock_(sim.alloc_var(0)), release_fence_(release_fence) {}

Task<> TasLock::acquire(Proc& p) {
  while (true) {
    const Value old = co_await p.cas(lock_, 0, 1);
    if (old == 0) co_return;
  }
}

Task<> TasLock::release(Proc& p) {
  co_await p.write(lock_, 0);
  if (release_fence_) co_await p.fence();
}

TtasLock::TtasLock(Simulator& sim, bool release_fence)
    : lock_(sim.alloc_var(0)), release_fence_(release_fence) {}

Task<> TtasLock::acquire(Proc& p) {
  while (true) {
    // Spin with plain reads until the lock looks free (cache-friendly
    // under CC), then attempt the CAS.
    while (true) {
      const Value seen = co_await p.read(lock_);
      if (seen == 0) break;
    }
    const Value old = co_await p.cas(lock_, 0, 1);
    if (old == 0) co_return;
  }
}

Task<> TtasLock::release(Proc& p) {
  co_await p.write(lock_, 0);
  if (release_fence_) co_await p.fence();
}

TicketLock::TicketLock(Simulator& sim, bool release_fence)
    : next_(sim.alloc_var(0)),
      serving_(sim.alloc_var(0)),
      release_fence_(release_fence) {}

Task<> TicketLock::acquire(Proc& p) {
  // fetch&increment(next) via a CAS loop.
  Value ticket = 0;
  while (true) {
    ticket = co_await p.read(next_);
    const Value old = co_await p.cas(next_, ticket, ticket + 1);
    if (old == ticket) break;
  }
  while (true) {
    p.at("ticket.wait", ticket);
    const Value now = co_await p.read(serving_);
    if (now == ticket) break;  // FIFO handoff
  }
}

Task<> TicketLock::release(Proc& p) {
  const Value current = co_await p.read(serving_);
  co_await p.write(serving_, current + 1);
  if (release_fence_) co_await p.fence();
}

AndersonLock::AndersonLock(Simulator& sim, int n)
    : n_(n),
      tail_(sim.alloc_var(0)),
      my_slot_(static_cast<std::size_t>(n), -1) {
  slots_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) slots_.push_back(sim.alloc_var(i == 0 ? 1 : 0));
}

Task<> AndersonLock::acquire(Proc& p) {
  // fetch&increment(tail) via CAS; the ticket names a spin slot.
  Value ticket = 0;
  while (true) {
    ticket = co_await p.read(tail_);
    const Value old = co_await p.cas(tail_, ticket, ticket + 1);
    if (old == ticket) break;
  }
  const auto slot = static_cast<std::size_t>(ticket % n_);
  my_slot_[static_cast<std::size_t>(p.id())] = static_cast<Value>(slot);
  while (true) {
    const Value go = co_await p.read(slots_[slot]);
    if (go == 1) break;  // spin on our own slot (CC-local)
  }
  co_await p.write(slots_[slot], 0);  // consume the baton for slot reuse
  co_await p.fence();
}

Task<> AndersonLock::release(Proc& p) {
  const auto slot = static_cast<std::size_t>(
      my_slot_[static_cast<std::size_t>(p.id())]);
  co_await p.write(slots_[(slot + 1) % static_cast<std::size_t>(n_)], 1);
  co_await p.fence();
}

}  // namespace tpa::algos
