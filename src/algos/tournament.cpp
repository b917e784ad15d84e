#include "algos/tournament.h"

#include "util/check.h"

namespace tpa::algos {

TournamentLock::TournamentLock(Simulator& sim, int n) : n_(n) {
  TPA_CHECK(n >= 1, "tournament lock needs at least one process");
  levels_ = 0;
  int leaves = 1;
  while (leaves < n) {
    leaves *= 2;
    ++levels_;
  }
  leaf_base_ = leaves;
  // Internal nodes 1..leaves-1 (index 0 unused).
  nodes_.resize(static_cast<std::size_t>(leaves));
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    nodes_[i].flag[0] = sim.alloc_var(0);
    nodes_[i].flag[1] = sim.alloc_var(0);
    nodes_[i].turn = sim.alloc_var(0);
  }
}

Task<> TournamentLock::acquire(Proc& p) {
  int pos = leaf_base_ + p.id();
  while (pos > 1) {
    const int node = pos / 2;
    const int side = pos % 2;
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    co_await p.write(nd.flag[side], 1);
    co_await p.write(nd.turn, side);
    co_await p.fence();  // Peterson on TSO: publish before reading opponent
    while (true) {
      p.at("tournament.wait", node, side);
      const Value other = co_await p.read(nd.flag[1 - side]);
      if (other == 0) break;
      const Value turn = co_await p.read(nd.turn);
      if (turn != side) break;
    }
    pos = node;
  }
}

Task<> TournamentLock::release(Proc& p) {
  // Retrace the path root-to-leaf, releasing every node we hold. A single
  // fence at the end commits all the flag resets in FIFO order.
  std::vector<int> path;
  int pos = leaf_base_ + p.id();
  while (pos > 1) {
    path.push_back(pos);
    pos /= 2;
  }
  for (std::size_t i = path.size(); i-- > 0;) {
    const int node = path[i] / 2;
    const int side = path[i] % 2;
    co_await p.write(nodes_[static_cast<std::size_t>(node)].flag[side], 0);
  }
  co_await p.fence();
}

}  // namespace tpa::algos
