"""A memo that lives for one scenario run.

`scenario.run_scenario` opens a scope with `run_scope()` and the scope is
discarded when the run ends.  Inside it, `memoized(table, key, subkey,
compute)` returns the value recorded earlier in the scope for (key,
subkey), or calls compute() and records the result.  Outside a scope every
call computes afresh.  The memo only caches: a call returns the same value
and takes the same path in a run or not, and no code asks whether a value
is recorded or a scope is open.  Where a proof needs a premise, such as
the cocycle law under the unary laws, the premise is the memoized check
itself: a hit inside a scope, computed afresh outside one.  The action law
of an assembled product module is not memoized: the module carries the
Report its assembly proved, which equivariant.verify_action returns.

An entry is keyed by the identity of `key` and holds it weakly: when the
key object dies, a weakref callback drops its entries.  So transient data
(the data of `random_roundtrips`, the datum S returns inside a round trip)
leave nothing behind.  A value must not reference its key, or the key
would never die.  Sub-keys are compared by value and held by their entry,
so an entry whose sub-key is its key (a tensor square) lives until the
scope closes.  A compute() that raises
records nothing, so a failure runs again at its next call.  Values are
shared between callers and must be immutable.
"""

import weakref
from contextlib import contextmanager
from contextvars import ContextVar

# table -> {id(key): (weakref to key, {subkey: value})} inside a scope; a
# context variable, so a scope in one thread leaves other threads unmemoized
_tables = ContextVar("orbipar_run_memo", default=None)


@contextmanager
def run_scope():
    """A fresh memo for the duration of the block."""
    tables = {}
    token = _tables.set(tables)
    try:
        yield
    finally:
        for entries in tables.values():
            entries.clear()         # drops the weakrefs, so no callback outlives the scope
        _tables.reset(token)


def memoized(table, key, subkey, compute):
    """compute(), recorded under (key, subkey) in `table` while a scope is open."""
    tables = _tables.get()
    if tables is None:
        return compute()
    entries = tables.setdefault(table, {})
    slot = entries.get(id(key))
    if slot is not None and subkey in slot[1]:
        return slot[1][subkey]
    value = compute()
    slot = entries.get(id(key))     # compute() may have recorded other sub-keys
    if slot is None:
        ref = weakref.ref(key, lambda _, k=id(key): entries.pop(k, None))
        slot = entries[id(key)] = (ref, {})
    slot[1][subkey] = value
    return value
