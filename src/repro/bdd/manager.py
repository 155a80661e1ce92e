"""The ROBDD manager.

A :class:`BDD` owns a set of variables and a shared, canonical node store.
Nodes are integers: ``0`` is the FALSE terminal, ``1`` the TRUE terminal,
and every id ``>= 2`` is an internal node ``(var, low, high)`` kept unique
through a hash table, so two equal functions always have the same node id.

The manager keeps a *variable order*: each variable id has a level, and on
every root-to-terminal path variables appear in increasing level.  All
algorithms compare levels (:meth:`BDD.level`) rather than raw variable
ids, so the order may be any permutation of the variables.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs.metrics import BddMetrics

#: Default cap on computed-table entries (clear-on-threshold).  Each
#: entry is a small tuple key plus an int, so the default bounds the
#: table at a few hundred MB even in adversarial workloads.
DEFAULT_CACHE_LIMIT = 1_000_000


class BDD:
    """A reduced ordered BDD manager.

    Parameters
    ----------
    num_vars:
        Number of variables to create up front.  More can be added later
        with :meth:`add_var`.
    cache_limit:
        Maximum number of computed-table entries.  The table is pure
        memoisation, so when an insert would exceed the cap the whole
        table is cleared (cheap, and recency bookkeeping would cost more
        than the occasional recomputation).  ``None`` disables the bound.
        Hits, misses and evictions are counted — see :meth:`metrics`.

    Examples
    --------
    >>> bdd = BDD(3)
    >>> x0, x1 = bdd.var(0), bdd.var(1)
    >>> f = bdd.apply_and(x0, bdd.apply_not(x1))
    >>> bdd.eval(f, {0: 1, 1: 0})
    True
    """

    FALSE = 0
    TRUE = 1

    #: Sentinel level used for terminals; larger than any variable level.
    _TERMINAL_LEVEL = 1 << 30

    def __init__(self, num_vars: int = 0,
                 cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT) -> None:
        # Node store; index = node id.  Entries 0 and 1 are terminals and
        # carry a dummy variable id of -1.
        self._var: List[int] = [-1, -1]
        self._low: List[int] = [0, 0]
        self._high: List[int] = [0, 0]
        # Unique table: (var, low, high) -> node id.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Computed table for ITE and helpers (size-capped memoisation).
        self._cache: Dict[Tuple, int] = {}
        self._cache_limit = cache_limit
        # Per-root support cache (nodes are immutable once created).
        self._support_cache: Dict[int, frozenset] = {}
        # BDD <-> packed-truth-table conversion cache, owned by
        # repro.kernel.convert (kept here so set_order can invalidate it).
        self._kernel_cache: Dict = {}
        # Hot-path counters (see metrics()).
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._ite_calls = 0
        self._restrict_calls = 0
        self._peak_nodes = 2
        # Chaos site, cached at construction: None (the production
        # default) keeps the hot ite() path at one extra pointer test.
        self._fault_ite = faults.hook("bdd.ite")
        # Variable order bookkeeping.
        self._level_of_var: List[int] = []
        self._var_at_level: List[int] = []
        self._names: List[str] = []
        for _ in range(num_vars):
            self.add_var()

    # ------------------------------------------------------------------
    # Variables and ordering
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables known to this manager."""
        return len(self._level_of_var)

    def add_var(self, name: Optional[str] = None) -> int:
        """Create a new variable at the bottom of the order; return its id."""
        var = len(self._level_of_var)
        self._level_of_var.append(var)
        self._var_at_level.append(var)
        self._names.append(name if name is not None else f"x{var}")
        return var

    def var_name(self, var: int) -> str:
        """Human-readable name of variable ``var``."""
        return self._names[var]

    def level(self, node: int) -> int:
        """Level of a node's top variable (terminals sort below everything)."""
        if node <= 1:
            return self._TERMINAL_LEVEL
        return self._level_of_var[self._var[node]]

    def var_level(self, var: int) -> int:
        """Current level of variable ``var`` in the order."""
        return self._level_of_var[var]

    def order(self) -> List[int]:
        """The current variable order, top level first."""
        return list(self._var_at_level)

    def set_order(self, order: Sequence[int]) -> None:
        """Install a new variable order.

        This *relabels levels only*; existing nodes become stale, so the
        caller must rebuild any live functions (see
        :func:`repro.bdd.reorder.rebuild`).  The manager's node store is
        cleared.
        """
        if sorted(order) != list(range(self.num_vars)):
            raise ValueError("order must be a permutation of all variables")
        self._var_at_level = list(order)
        for lvl, var in enumerate(order):
            self._level_of_var[var] = lvl
        # All stored nodes are invalid under the new order.
        self._var = self._var[:2]
        self._low = self._low[:2]
        self._high = self._high[:2]
        self._unique.clear()
        self._cache.clear()
        self._support_cache.clear()
        self._kernel_cache.clear()

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _make(self, var: int, low: int, high: int) -> int:
        """Find-or-create the canonical node ``(var, low, high)``."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
            if node >= self._peak_nodes:
                self._peak_nodes = node + 1
        return node

    def _cache_put(self, key: Tuple, res: int) -> None:
        """Insert into the computed table, clearing it at the cap."""
        cache = self._cache
        if self._cache_limit is not None and len(cache) >= self._cache_limit:
            cache.clear()
            self._cache_evictions += 1
        cache[key] = res

    def var_of(self, node: int) -> int:
        """Top variable id of an internal node."""
        if node <= 1:
            raise ValueError("terminals have no variable")
        return self._var[node]

    def low(self, node: int) -> int:
        """Low (else, var=0) child of an internal node."""
        return self._low[node]

    def high(self, node: int) -> int:
        """High (then, var=1) child of an internal node."""
        return self._high[node]

    def var(self, i: int) -> int:
        """BDD of the projection function ``x_i``."""
        if not 0 <= i < self.num_vars:
            raise ValueError(f"unknown variable {i}")
        return self._make(i, self.FALSE, self.TRUE)

    def nvar(self, i: int) -> int:
        """BDD of the negated projection function ``not x_i``."""
        return self._make(i, self.TRUE, self.FALSE)

    # ------------------------------------------------------------------
    # Core: if-then-else
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """``if f then g else h`` — the universal ternary operator.

        The hot path of every BDD operation, so a miss reads levels and
        children straight from the node lists instead of calling
        :meth:`level`; it recurses low before high, which fixes the
        order in which new nodes get their ids.
        """
        self._ite_calls += 1
        if self._fault_ite is not None:
            self._fault_ite()  # chaos site: bdd.ite
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = ("ite", f, g, h)
        cache = self._cache
        res = cache.get(key)
        if res is not None:
            self._cache_hits += 1
            return res
        self._cache_misses += 1
        var_of = self._var
        level_of = self._level_of_var
        lows = self._low
        highs = self._high
        # f is internal here; g and h may be terminals.
        lvl = lf = level_of[var_of[f]]
        lg = level_of[var_of[g]] if g > 1 else self._TERMINAL_LEVEL
        if lg < lvl:
            lvl = lg
        lh = level_of[var_of[h]] if h > 1 else self._TERMINAL_LEVEL
        if lh < lvl:
            lvl = lh
        if lf == lvl:
            f0, f1 = lows[f], highs[f]
        else:
            f0 = f1 = f
        if lg == lvl:
            g0, g1 = lows[g], highs[g]
        else:
            g0 = g1 = g
        if lh == lvl:
            h0, h1 = lows[h], highs[h]
        else:
            h0 = h1 = h
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        res = self._make(self._var_at_level[lvl], low, high)
        if self._cache_limit is not None and len(cache) >= self._cache_limit:
            cache.clear()
            self._cache_evictions += 1
        cache[key] = res
        return res

    # ------------------------------------------------------------------
    # Derived Boolean operations
    # ------------------------------------------------------------------

    def apply_not(self, f: int) -> int:
        """Negation."""
        return self.ite(f, self.FALSE, self.TRUE)

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, self.FALSE)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, self.TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.apply_not(g), g)

    def apply_xnor(self, f: int, g: int) -> int:
        """Equivalence."""
        return self.ite(f, g, self.apply_not(g))

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, self.TRUE)

    def apply_diff(self, f: int, g: int) -> int:
        """Difference ``f and not g``."""
        return self.ite(g, self.FALSE, f)

    def conjoin(self, nodes: Iterable[int]) -> int:
        """AND of an iterable of nodes (TRUE for empty input)."""
        result = self.TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == self.FALSE:
                break
        return result

    def disjoin(self, nodes: Iterable[int]) -> int:
        """OR of an iterable of nodes (FALSE for empty input)."""
        result = self.FALSE
        for node in nodes:
            result = self.apply_or(result, node)
            if result == self.TRUE:
                break
        return result

    def leq(self, f: int, g: int) -> bool:
        """Does ``f`` imply ``g`` (i.e. is the interval ``[f, g]`` ordered)?"""
        if f == g:
            return True
        return self.apply_diff(f, g) == self.FALSE

    # ------------------------------------------------------------------
    # Cofactors, composition, quantification
    # ------------------------------------------------------------------

    def restrict(self, f: int, var: int, value: int) -> int:
        """Cofactor ``f`` with ``var`` fixed to ``value`` (0 or 1)."""
        self._restrict_calls += 1
        key = ("res", f, var, value)
        res = self._cache.get(key)
        if res is not None:
            self._cache_hits += 1
            return res
        self._cache_misses += 1
        res = self._restrict_rec(f, var, self._level_of_var[var], value)
        self._cache_put(key, res)
        return res

    def _restrict_rec(self, f: int, var: int, vlvl: int, value: int) -> int:
        if f <= 1:
            return f
        lvl = self._level_of_var[self._var[f]]
        if lvl > vlvl:
            return f
        if lvl == vlvl:
            return self._high[f] if value else self._low[f]
        key = ("res", f, var, value)
        res = self._cache.get(key)
        if res is not None:
            self._cache_hits += 1
            return res
        self._cache_misses += 1
        low = self._restrict_rec(self._low[f], var, vlvl, value)
        high = self._restrict_rec(self._high[f], var, vlvl, value)
        res = self._make(self._var[f], low, high)
        self._cache_put(key, res)
        return res

    def cofactor(self, f: int, assignment: Dict[int, int]) -> int:
        """Cofactor w.r.t. a partial assignment ``{var: value}``.

        Variables are fixed from the bottom of the order upward so that
        intermediate results stay small.
        """
        for var in sorted(assignment, key=self._level_of_var.__getitem__,
                          reverse=True):
            f = self.restrict(f, var, assignment[var])
        return f

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        f0 = self.restrict(f, var, 0)
        f1 = self.restrict(f, var, 1)
        return self.ite(g, f1, f0)

    def vector_compose(self, f: int, substitution: Dict[int, int]) -> int:
        """Simultaneously substitute ``substitution[var]`` for each variable.

        Unlisted variables are left unchanged.
        """
        memo: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1:
                return node
            cached = memo.get(node)
            if cached is not None:
                return cached
            var = self._var[node]
            low = walk(self._low[node])
            high = walk(self._high[node])
            replacement = substitution.get(var)
            if replacement is None:
                replacement = self.var(var)
            res = self.ite(replacement, high, low)
            memo[node] = res
            return res

        return walk(f)

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables: substitute variable ``mapping[v]`` for ``v``."""
        return self.vector_compose(
            f, {v: self.var(w) for v, w in mapping.items()}
        )

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        for var in sorted(variables, key=self._level_of_var.__getitem__,
                          reverse=True):
            f = self.apply_or(self.restrict(f, var, 0),
                              self.restrict(f, var, 1))
        return f

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over ``variables``."""
        for var in sorted(variables, key=self._level_of_var.__getitem__,
                          reverse=True):
            f = self.apply_and(self.restrict(f, var, 0),
                               self.restrict(f, var, 1))
        return f

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def support(self, f: int) -> set:
        """Set of variable ids ``f`` genuinely depends on.

        Cached per root node (nodes are immutable once created).
        """
        cached = self._support_cache.get(f)
        if cached is not None:
            return set(cached)
        seen = set()
        supp = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            supp.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        self._support_cache[f] = frozenset(supp)
        return supp

    def node_count(self, *roots: int) -> int:
        """Number of distinct nodes (terminals included) reachable from roots."""
        seen = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node > 1:
                stack.append(self._low[node])
                stack.append(self._high[node])
        return len(seen)

    def eval(self, f: int, assignment: Dict[int, int]) -> bool:
        """Evaluate ``f`` under a total assignment ``{var: 0/1}``."""
        node = f
        while node > 1:
            node = (self._high[node] if assignment[self._var[node]]
                    else self._low[node])
        return node == self.TRUE

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        if nvars is None:
            nvars = self.num_vars
        if f <= 1:
            return (1 << nvars) if f == self.TRUE else 0
        # count(node) = number of satisfying assignments over the variables
        # at levels [level(node), nvars); terminal levels clamp to nvars.
        memo: Dict[int, int] = {}

        def clamped_level(node: int) -> int:
            return nvars if node <= 1 else self.level(node)

        def count(node: int) -> int:
            if node == self.FALSE:
                return 0
            if node == self.TRUE:
                return 1
            cached = memo.get(node)
            if cached is not None:
                return cached
            lvl = clamped_level(node)
            low, high = self._low[node], self._high[node]
            res = (count(low) << (clamped_level(low) - lvl - 1)) + \
                  (count(high) << (clamped_level(high) - lvl - 1))
            memo[node] = res
            return res

        return count(f) << clamped_level(f)

    def pick(self, f: int) -> Optional[Dict[int, int]]:
        """One satisfying partial assignment of ``f`` or None if unsat."""
        if f == self.FALSE:
            return None
        assignment: Dict[int, int] = {}
        node = f
        while node > 1:
            var = self._var[node]
            if self._low[node] != self.FALSE:
                assignment[var] = 0
                node = self._low[node]
            else:
                assignment[var] = 1
                node = self._high[node]
        return assignment

    def iter_minterms(self, f: int,
                      variables: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """Yield all minterms of ``f`` over the given variable tuple."""
        nvars = len(variables)
        for bits in range(1 << nvars):
            assignment = {
                variables[i]: (bits >> (nvars - 1 - i)) & 1
                for i in range(nvars)
            }
            if self.eval(f, {**{v: 0 for v in range(self.num_vars)},
                             **assignment}):
                yield tuple(assignment[v] for v in variables)

    # ------------------------------------------------------------------
    # Truth tables and cubes
    # ------------------------------------------------------------------

    def from_truth_table(self, bits: Sequence[int],
                         variables: Sequence[int]) -> int:
        """Build a BDD from a truth table.

        ``bits[k]`` is the value for the assignment where ``variables[0]``
        is the most significant bit of ``k``.
        """
        nvars = len(variables)
        if len(bits) != (1 << nvars):
            raise ValueError("truth table length must be 2**len(variables)")

        levels = sorted(variables, key=self._level_of_var.__getitem__)

        def build(index_bits: Dict[int, int], depth: int) -> int:
            if depth == nvars:
                k = 0
                for i, v in enumerate(variables):
                    k = (k << 1) | index_bits[v]
                return self.TRUE if bits[k] else self.FALSE
            var = levels[depth]
            index_bits[var] = 0
            low = build(index_bits, depth + 1)
            index_bits[var] = 1
            high = build(index_bits, depth + 1)
            del index_bits[var]
            return self._make(var, low, high)

        return build({}, 0)

    def to_truth_table(self, f: int,
                       variables: Sequence[int]) -> List[int]:
        """Truth table of ``f`` over ``variables`` (MSB-first indexing).

        One descent per row; a variable outside ``variables`` reads 0.
        """
        nvars = len(variables)
        shift = {v: nvars - 1 - i for i, v in enumerate(variables)}
        var_of = self._var
        lows = self._low
        highs = self._high
        table = []
        for k in range(1 << nvars):
            node = f
            while node > 1:
                s = shift.get(var_of[node])
                node = (highs[node] if s is not None and (k >> s) & 1
                        else lows[node])
            table.append(node)
        return table

    def cube(self, literals: Dict[int, int]) -> int:
        """BDD of the cube given by ``{var: polarity}``."""
        result = self.TRUE
        for var in sorted(literals, key=self._level_of_var.__getitem__,
                          reverse=True):
            lit = self.var(var) if literals[var] else self.nvar(var)
            result = self.apply_and(result, lit)
        return result

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop the computed table (unique table is kept)."""
        self._cache.clear()

    @property
    def cache_limit(self) -> Optional[int]:
        """Computed-table entry cap (None = unbounded)."""
        return self._cache_limit

    @cache_limit.setter
    def cache_limit(self, limit: Optional[int]) -> None:
        self._cache_limit = limit
        if limit is not None and len(self._cache) > limit:
            self._cache.clear()
            self._cache_evictions += 1

    def metrics(self) -> BddMetrics:
        """Snapshot of the manager's hot-path counters."""
        return BddMetrics(
            num_vars=self.num_vars,
            nodes=len(self._var),
            peak_nodes=self._peak_nodes,
            unique_table_size=len(self._unique),
            computed_table_size=len(self._cache),
            computed_table_capacity=self._cache_limit,
            computed_hits=self._cache_hits,
            computed_misses=self._cache_misses,
            computed_evictions=self._cache_evictions,
            ite_calls=self._ite_calls,
            restrict_calls=self._restrict_calls,
        )

    def reset_counters(self) -> None:
        """Zero the hot-path counters (table contents are untouched).

        Lets one run's metrics be isolated when several runs share a
        manager (e.g. the CLI's ``compare`` command).
        """
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._ite_calls = 0
        self._restrict_calls = 0
        self._peak_nodes = len(self._var)

    def __len__(self) -> int:
        return len(self._var)

    def __repr__(self) -> str:
        return (f"<BDD vars={self.num_vars} nodes={len(self._var)} "
                f"cache={len(self._cache)}>")
