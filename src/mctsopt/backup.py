"""Backup strategies: how a simulation return updates node values.

Two families share one interface.  Averaging strategies update every node
on the simulated path with the new return.  Standard, feedback and
monotone are one table-driven path: Q is the weighted mean of a node's
returns, each weighted by a table entry indexed by the node's visit count
when the return arrived (standard's table is all ones).  ERWA is its own
recursion, Q += alpha * (r - Q).  Parent-recomputation strategies (coulom,
softmax) give the path end a plain running-mean update and then rebuild
each ancestor's value from its children's current statistics, walking
toward the root.  coulom_parent_update and softmax_parent_update state
that rebuild for one parent as plain functions of (q, n) pairs; the
strategies compute the same values inline, and the functions stay as the
tests' reference for them.

Strategies are immutable after construction and safe to share between
concurrent searches; the mutable per-node scratch (weighted return sum and
weight sum) lives on the tree nodes.
"""

from __future__ import annotations

import math

from .weights import WeightProfile, build_weight_table, feedback_weight


class BackupStrategy:
    """Interface: mutate the nodes on a root-to-leaf path with a return."""

    kind = "abstract"

    def backpropagate(self, path, value: float) -> None:
        raise NotImplementedError


class _AveragingBackup(BackupStrategy):
    """Q is a weighted mean of a node's returns; the return reaching a node
    with n visits gets weight table[n], or the table's last entry beyond it."""

    def __init__(self, table):
        self._table = [float(w) for w in table]
        self._last = len(self._table) - 1

    def backpropagate(self, path, value: float) -> None:
        table = self._table
        last = self._last
        for node in path:
            n = node.visits
            w = table[n] if n < last else table[last]
            node.acc_value += w * value
            node.acc_weight += w
            node.q = node.acc_value / node.acc_weight
            node.visits = n + 1


class StandardBackup(_AveragingBackup):
    """Running arithmetic mean of all returns seen at each node."""

    kind = "standard"

    def __init__(self):
        super().__init__((1.0,))


class ErwaBackup(BackupStrategy):
    """Exponential recency-weighted average: Q += alpha * (r - Q).

    The first return initializes Q directly.  alpha = 1 keeps only the
    newest return.
    """

    kind = "erwa"

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def backpropagate(self, path, value: float) -> None:
        alpha = self.alpha
        for node in path:
            if node.visits == 0 or alpha == 1.0:
                node.q = value
            else:
                node.q += alpha * (value - node.q)
            node.visits += 1


class FeedbackBackup(_AveragingBackup):
    """Stepwise increasing weights over 8 segments of the visit horizon."""

    kind = "feedback"

    def __init__(self, profile: str, final_ratio: float, horizon: int):
        # A negative horizon would build an empty table without calling
        # feedback_weight, which checks the other arguments.
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.profile = profile
        self.final_ratio = float(final_ratio)
        self.horizon = int(horizon)
        super().__init__(
            feedback_weight(profile, t, self.horizon, self.final_ratio)
            for t in range(self.horizon + 1))


class MonotoneBackup(_AveragingBackup):
    """Weighted mean with a smooth increasing weight profile.

    Later returns come from deeper, better-informed searches, so they get
    larger weights; the profile shape is a tuning target.  Tuned profiles
    are built with w0 = 1 (see from_knots); any positive w0 is accepted so
    recency-equivalent profiles (w0 = alpha) work too.
    """

    kind = "monotone"

    def __init__(self, profile: WeightProfile):
        if not profile.w0 > 0.0:
            raise ValueError("monotone backup needs w(0) > 0")
        self.profile = profile
        super().__init__(profile.table)

    @classmethod
    def from_knots(cls, knots, horizon: int) -> "MonotoneBackup":
        return cls(build_weight_table(knots, horizon, w0=1.0))


def coulom_parent_update(children, maximizing: bool, x: float, y: int,
                         n_parent: int) -> float:
    """Interpolate between the best child's value and the visit-weighted
    mean of all children, trusting the best child more as its visits grow.

    ``children`` is a sequence of (q, n) pairs with n >= 1.  The damping
    term M stays at ``x`` until the parent has ``y`` visits and then grows
    logarithmically, so the pull toward the best child keeps slowing.
    """
    if not children:
        raise ValueError("parent update needs at least one visited child")
    if maximizing:
        q_best, n_best = max(children, key=lambda qn: qn[0])
    else:
        q_best, n_best = min(children, key=lambda qn: qn[0])
    total_n = sum(n for _, n in children)
    q_mean = sum(q * n for q, n in children) / total_n
    if n_parent < y:
        m = x
    else:
        m = x * (1.0 + math.log2(n_parent / y))
    lam = n_best / (n_best + m)
    return lam * q_best + (1.0 - lam) * q_mean


def softmax_parent_update(children, maximizing: bool, profile: WeightProfile,
                          n_parent: int) -> float:
    """Softmax-weighted mean of the children's values.

    Each child contributes weight n_j * exp(+-q_j * w(n_parent)), sign
    chosen so both players sharpen toward their own preferred child.  At
    w = 0 this is exactly the visit-weighted mean; as w grows it converges
    to the best (worst, for a minimizing parent) child's value.  The
    largest exponent is subtracted before exponentiation because w is
    unbounded by design.
    """
    if not children:
        raise ValueError("parent update needs at least one visited child")
    w = float(profile.table[min(n_parent, profile.horizon)])
    sign = 1.0 if maximizing else -1.0
    exponents = [sign * q * w for q, _ in children]
    top = max(exponents)
    total = 0.0
    weighted = 0.0
    for (q, n), e in zip(children, exponents):
        a = n * math.exp(e - top)
        total += a
        weighted += a * q
    return weighted / total


class _ParentRecomputeBackup(BackupStrategy):
    """Base for strategies that rebuild ancestor values from children.

    Each ancestor's value is what coulom_parent_update or
    softmax_parent_update gives for its visited children, computed from
    the child nodes directly with the same floating-point operations in
    the same order, so the results are bit-identical.  No search calls
    those two functions; they stay as the reference the tests hold the
    inline walks to.
    """

    def backpropagate(self, path, value: float) -> None:
        leaf = path[-1]
        leaf.acc_value += value
        leaf.acc_weight += 1.0
        leaf.q = leaf.acc_value / leaf.acc_weight
        leaf.visits += 1
        self._recompute_ancestors(path)

    def _recompute_ancestors(self, path) -> None:
        raise NotImplementedError


class CoulomBackup(_ParentRecomputeBackup):
    """Best-child / mean interpolation applied at every ancestor."""

    kind = "coulom"

    def __init__(self, x: float, y: int):
        if not x > 0:
            raise ValueError("x must be positive")
        if y < 1:
            raise ValueError("y must be a positive integer")
        self.x = float(x)
        self.y = int(y)

    def _recompute_ancestors(self, path) -> None:
        x = self.x
        y = self.y
        for node in reversed(path[:-1]):
            n_parent = node.visits + 1
            node.visits = n_parent
            maximizing = node.is_max
            products = []
            total_n = 0
            q_best = None
            for child in node.children:
                n = child.visits
                if n:
                    q = child.q
                    products.append(q * n)
                    total_n += n
                    if q_best is None or (q > q_best if maximizing else q < q_best):
                        q_best = q
                        n_best = n
            q_mean = sum(products) / total_n
            m = x if n_parent < y else x * (1.0 + math.log2(n_parent / y))
            lam = n_best / (n_best + m)
            node.q = lam * q_best + (1.0 - lam) * q_mean


class SoftmaxBackup(_ParentRecomputeBackup):
    """Softmax-of-children value applied at every ancestor (w(0) = 0).

    Early in the search the parent value matches plain averaging; as
    visits accumulate it interpolates toward the minimax-style best-child
    value at a rate set by the weight profile.  Each ancestor takes two
    passes over its visited children: the first finds the largest
    exponent, the second sums n * exp(exponent - largest) and the same
    terms times q, in child order.
    """

    kind = "softmax"

    def __init__(self, profile: WeightProfile):
        if profile.w0 != 0.0:
            raise ValueError("softmax backup requires a profile with w0 = 0")
        self.profile = profile
        self._table = [float(w) for w in profile.table]
        self._last = profile.horizon

    @classmethod
    def from_knots(cls, knots, horizon: int) -> "SoftmaxBackup":
        return cls(build_weight_table(knots, horizon, w0=0.0))

    def _recompute_ancestors(self, path) -> None:
        table = self._table
        last = self._last
        exp = math.exp
        for node in reversed(path[:-1]):
            n_parent = node.visits + 1
            node.visits = n_parent
            w = table[n_parent] if n_parent < last else table[last]
            sign = 1.0 if node.is_max else -1.0
            children = node.children
            top = -math.inf
            for child in children:
                if child.visits:
                    e = sign * child.q * w
                    if e > top:
                        top = e
            total = 0.0
            weighted = 0.0
            for child in children:
                n = child.visits
                if n:
                    q = child.q
                    a = n * exp(sign * q * w - top)
                    total += a
                    weighted += a * q
            node.q = weighted / total


def format_knots(knots) -> str:
    """Render a knot vector as a parenthesized tuple, e.g. (-10.0, -4.0)."""
    return "(" + ", ".join(repr(float(k)) for k in knots) + ")"


def parse_knots(text: str) -> tuple[float, ...]:
    """Parse a parenthesized knot tuple like (-10.0, -10.0, -4.0)."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = [p for p in (s.strip() for s in stripped.split(",")) if p]
    if len(parts) < 2:
        raise ValueError(f"knot tuple needs at least two entries: {text!r}")
    return tuple(float(p) for p in parts)

