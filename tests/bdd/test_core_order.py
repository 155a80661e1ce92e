"""Pin the BDD core: same nodes in the same order, same counters.

``BDD.ite`` and ``BDD._restrict_rec`` read levels and children straight
from the manager's lists.  The reference below keeps them as method
calls (``level``, ``_branch``, ``_make``, ``_cache_put``), with the
eval-per-row ``to_truth_table``.  Driven through the same random
formulas, both managers must create every node in the same order and
count the same calls, hits, misses and evictions: node ids are part of
every record a warm manager produces.
"""

import random

import pytest

from repro import faults
from repro.bdd.manager import BDD
from repro.faults import FaultInjected


class ReferenceBDD(BDD):
    """The manager with the method-call core."""

    def ite(self, f, g, h):
        self._ite_calls += 1
        if self._fault_ite is not None:
            self._fault_ite()
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = ("ite", f, g, h)
        res = self._cache.get(key)
        if res is not None:
            self._cache_hits += 1
            return res
        self._cache_misses += 1
        lvl = min(self.level(f), self.level(g), self.level(h))
        top = self._var_at_level[lvl]
        f0, f1 = self._branch(f, top, lvl)
        g0, g1 = self._branch(g, top, lvl)
        h0, h1 = self._branch(h, top, lvl)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        res = self._make(top, low, high)
        self._cache_put(key, res)
        return res

    def _branch(self, node, var, lvl):
        if self.level(node) == lvl and self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    def _restrict_rec(self, f, var, vlvl, value):
        lvl = self.level(f)
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

    def to_truth_table(self, f, variables):
        nvars = len(variables)
        table = []
        for k in range(1 << nvars):
            assignment = {v: 0 for v in self.support(f)}
            for i, v in enumerate(variables):
                assignment[v] = (k >> (nvars - 1 - i)) & 1
            table.append(1 if self.eval(f, assignment) else 0)
        return table


def drive(bdd, seed, steps=250):
    """Random formulas, restricts, compositions, quantifiers and truth
    tables; returns every result in order."""
    rng = random.Random(seed)
    n = bdd.num_vars
    order = list(range(n))
    rng.shuffle(order)
    bdd.set_order(order)
    pool = [bdd.var(v) for v in range(n)] + [BDD.FALSE, BDD.TRUE]
    results = []
    for _ in range(steps):
        a, b, c = (rng.choice(pool) for _ in range(3))
        v = rng.randrange(n)
        op = rng.randrange(10)
        if op == 0:
            r = bdd.ite(a, b, c)
        elif op == 1:
            r = bdd.apply_and(a, b)
        elif op == 2:
            r = bdd.apply_or(a, bdd.apply_not(b))
        elif op == 3:
            r = bdd.apply_xor(a, b)
        elif op == 4:
            r = bdd.restrict(a, v, rng.randrange(2))
        elif op == 5:
            r = bdd.cofactor(a, {v: 1, rng.randrange(n): 0})
        elif op == 6:
            r = bdd.compose(a, v, b)
        elif op == 7:
            subst = {w: rng.choice(pool) for w in rng.sample(range(n), 3)}
            r = bdd.vector_compose(a, subst)
        elif op == 8:
            r = bdd.exists(a, rng.sample(range(n), 2))
        else:
            variables = rng.sample(range(n), rng.randint(0, 6))
            results.append(tuple(bdd.to_truth_table(a, variables)))
            continue
        results.append(r)
        pool.append(r)
        if len(pool) > 40:
            pool.pop(rng.randrange(n + 2, len(pool)))
    return results


def counters(bdd):
    m = bdd.metrics()
    return (m.ite_calls, m.restrict_calls, m.computed_hits,
            m.computed_misses, m.computed_evictions, m.peak_nodes)


@pytest.mark.parametrize("cache_limit", [None, 16])
@pytest.mark.parametrize("seed", range(6))
def test_same_nodes_same_order_same_counters(seed, cache_limit):
    nvars = 8 + seed % 3
    ref = ReferenceBDD(nvars, cache_limit=cache_limit)
    new = BDD(nvars, cache_limit=cache_limit)
    assert drive(new, seed) == drive(ref, seed)
    assert new._var == ref._var
    assert new._low == ref._low
    assert new._high == ref._high
    assert counters(new) == counters(ref)
    if cache_limit is not None:
        assert new.metrics().computed_evictions > 0


@pytest.mark.parametrize("seed", range(3))
def test_truth_tables_read_unlisted_variables_as_zero(seed):
    rng = random.Random(seed)
    bdd = BDD(9)
    f = bdd.from_truth_table([rng.randint(0, 1) for _ in range(1 << 9)],
                             list(range(9)))
    for _ in range(10):
        variables = rng.sample(range(9), rng.randint(0, 9))
        nv = len(variables)
        want = []
        for k in range(1 << nv):
            assignment = dict.fromkeys(range(9), 0)
            for i, v in enumerate(variables):
                assignment[v] = (k >> (nv - 1 - i)) & 1
            want.append(int(bdd.eval(f, assignment)))
        assert bdd.to_truth_table(f, variables) == want


@pytest.mark.parametrize("nth", [1, 2, 7, 40, 333])
def test_ite_fault_site_fires_once_per_call(monkeypatch, nth):
    monkeypatch.setenv(faults.ENV_VAR, f"bdd.ite:raise:1:{nth}")
    bdd = BDD(9)
    with pytest.raises(FaultInjected):
        drive(bdd, 3)
    # The nth arrival raised, and it was the nth call.
    assert bdd.metrics().ite_calls == nth
