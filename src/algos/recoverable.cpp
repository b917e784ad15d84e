#include "algos/recoverable.h"

// NOTE on style: as everywhere in src/algos, every co_await is a standalone
// statement or a variable initializer (GCC 12 condition-expression bug; see
// spin_locks.cpp).

namespace tpa::algos {

RecoverableLock::RecoverableLock(Simulator& sim, RecoverableFencing fencing)
    : lock_(sim.alloc_var(0)), owner_(sim.alloc_var(0)), fencing_(fencing) {}

std::string RecoverableLock::name() const {
  return fencing_ == RecoverableFencing::kFull ? "recoverable"
                                               : "recoverable-nofence";
}

Task<> RecoverableLock::acquire(Proc& p) {
  // Announce first: the write sits in the buffer only until the first CAS
  // below, whose implied drain commits it. The winner therefore always has
  // its announcement in memory before it can reach the CS. (Losers clobber
  // owner_ too — harmless for kFull, which never reads it, and exactly the
  // fragility kNone's recovery inherits.)
  co_await p.write(owner_, p.id() + 1);
  while (true) {
    p.at("recoverable.acquire");
    const Value old = co_await p.cas(lock_, 0, p.id() + 1);
    if (old == 0) co_return;
  }
}

Task<> RecoverableLock::release(Proc& p) {
  if (fencing_ == RecoverableFencing::kFull) {
    // Retire the announcement before the lock can change hands, and commit
    // the handover before leaving: no reachable crash point leaves memory
    // claiming a holder that is not (still) entitled to the CS.
    co_await p.write(owner_, 0);
    co_await p.fence();
    co_await p.write(lock_, 0);
    co_await p.fence();
  } else {
    // Fence-free: both writes sit in the buffer and TSO commits lock_ = 0
    // first. A buffer-lost crash after that commit erases owner_ = 0, so
    // memory says "free lock, p still owns it" — the stale-announcement
    // window the explorer's crash adversary finds.
    co_await p.write(lock_, 0);
    co_await p.write(owner_, 0);
  }
}

Task<Value> RecoverableLock::owns_after_crash(Proc& p) {
  if (fencing_ == RecoverableFencing::kFull) {
    const Value l = co_await p.read(lock_);
    co_return l == p.id() + 1 ? 1 : 0;
  }
  const Value o = co_await p.read(owner_);
  co_return o == p.id() + 1 ? 1 : 0;
}

Task<> run_recovered_passages(Proc& p, std::shared_ptr<RecoverableLock> lock,
                              int fresh) {
  const Value owns = co_await lock->owns_after_crash(p);
  if (owns != 0) {
    // The crashed incarnation still holds the lock: the CS is still p's,
    // so complete the interrupted passage — enter, the (instantaneous) CS,
    // and a full exit section to hand the lock back cleanly.
    co_await p.enter();
    co_await p.cs();
    co_await lock->release(p);
    co_await p.exit();
  } else {
    co_await run_passage(p, lock);
  }
  for (int i = 0; i < fresh; ++i) {
    co_await run_passage(p, lock);
  }
}

}  // namespace tpa::algos
