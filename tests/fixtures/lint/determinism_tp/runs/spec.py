"""True positives for D1: this file's path suffix (``runs/spec.py``)
makes every function here a spec-hashed entry point."""


def fold_addresses(addrs):
    # Set order escapes into the returned list.
    out = []
    for addr in set(addrs):
        out.append(addr)
    return out


def profile_names(patterns):
    # A name bound to a set still carries the set's order into the
    # comprehension (the shape of an enumeration that dedups first).
    unique = set(patterns)
    return [f"ace-{p}" for p in unique]
