"""True negatives for D1: deterministic twins of every
``determinism_tp`` pattern, plus the documented exemption."""


def fold_addresses(addrs):
    # Sorting launders the set order before it can escape.
    out = []
    for addr in sorted(set(addrs)):
        out.append(addr)
    return out


def profile_names(patterns):
    unique = set(patterns)
    return [f"ace-{p}" for p in sorted(unique)]


def count_unqueued(addrs, queue):
    # Order-insensitive reduction over a set: sum absorbs the order
    # (the drainer's real dedup-count idiom).
    return sum(1 for a in set(addrs) if a not in queue)
