# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the exponential subset recursions.

One machine word per dominance row, so instances cap at 64 alternatives;
the dispatcher falls back to the pure-Python kernel beyond that.  Results,
traversal orders, and statistics match tsol._pykernel exactly.
"""

from cython.operator cimport dereference
from libcpp.unordered_map cimport unordered_map

ctypedef unsigned long long u64

NAME = "native"

cdef extern from *:
    """
    #if defined(__GNUC__) || defined(__clang__)
    static inline int tsol_ctz64(unsigned long long x) { return __builtin_ctzll(x); }
    static inline int tsol_pop64(unsigned long long x) { return __builtin_popcountll(x); }
    #else
    static inline int tsol_ctz64(unsigned long long x) {
        int c = 0;
        while (!(x & 1ULL)) { x >>= 1; ++c; }
        return c;
    }
    static inline int tsol_pop64(unsigned long long x) {
        int c = 0;
        while (x) { x &= x - 1; ++c; }
        return c;
    }
    #endif
    """
    int tsol_ctz64(u64 x) nogil
    int tsol_pop64(u64 x) nogil


cdef u64 ONE = 1


cdef u64 _top_cycle(u64 carrier, u64* ine, int n) nogil:
    """Union of the source components; ine[a] holds b with edge b -> a."""
    cdef u64 out[64]
    cdef int index_[64]
    cdef int low[64]
    cdef int comp[64]
    cdef int stack_[64]
    cdef int fnode[64]
    cdef u64 frem[64]
    cdef bint incoming[64]
    cdef u64 m, e, visited, onstack, res
    cdef int a, b, v, w, p, root, sp, fp, counter, ncomp, ca
    cdef bint advanced

    m = carrier
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        out[a] = 0
    m = carrier
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        e = ine[a] & carrier
        while e:
            b = tsol_ctz64(e)
            e &= e - 1
            out[b] |= ONE << a

    visited = 0
    onstack = 0
    sp = 0
    counter = 0
    ncomp = 0
    m = carrier
    while m:
        root = tsol_ctz64(m)
        m &= m - 1
        if visited & (ONE << root):
            continue
        index_[root] = counter
        low[root] = counter
        counter += 1
        visited |= ONE << root
        onstack |= ONE << root
        stack_[sp] = root
        sp += 1
        fnode[0] = root
        frem[0] = out[root] & carrier
        fp = 1
        while fp > 0:
            v = fnode[fp - 1]
            e = frem[fp - 1]
            advanced = False
            while e:
                w = tsol_ctz64(e)
                e &= e - 1
                if not (visited & (ONE << w)):
                    frem[fp - 1] = e
                    index_[w] = counter
                    low[w] = counter
                    counter += 1
                    visited |= ONE << w
                    onstack |= ONE << w
                    stack_[sp] = w
                    sp += 1
                    fnode[fp] = w
                    frem[fp] = out[w] & carrier
                    fp += 1
                    advanced = True
                    break
                if (onstack >> w) & 1 and index_[w] < low[v]:
                    low[v] = index_[w]
            if advanced:
                continue
            frem[fp - 1] = 0
            fp -= 1
            if fp > 0:
                p = fnode[fp - 1]
                if low[v] < low[p]:
                    low[p] = low[v]
            if low[v] == index_[v]:
                while True:
                    w = stack_[sp - 1]
                    sp -= 1
                    onstack &= ~(ONE << w)
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1

    for a in range(ncomp):
        incoming[a] = False
    m = carrier
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        ca = comp[a]
        e = ine[a] & carrier
        while e:
            b = tsol_ctz64(e)
            e &= e - 1
            if comp[b] != ca:
                incoming[ca] = True
    res = 0
    m = carrier
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        if not incoming[comp[a]]:
            res |= ONE << a
    return res


cdef void _fill(u64* rows, u64* cols, object py_rows, int n):
    cdef int i, b
    cdef u64 r
    for i in range(n):
        rows[i] = <u64> py_rows[i]
        cols[i] = 0
    for b in range(n):
        r = rows[b]
        while r:
            i = tsol_ctz64(r)
            r &= r - 1
            cols[i] |= ONE << b


cdef class _Exact:
    """Mirror of tsol._pykernel._exact_solver, whose docstring proves the
    top-cycle restriction sound and defines the counters."""
    cdef u64 rows[64]
    cdef u64 cols[64]
    cdef int n
    cdef bint use_cache
    cdef unordered_map[u64, u64] memo
    cdef long long calls
    cdef long long computed

    cdef void setup(self, object py_rows, int n, bint use_cache):
        self.n = n
        self.use_cache = use_cache
        self.calls = 0
        self.computed = 0
        _fill(self.rows, self.cols, py_rows, n)

    cdef u64 solve(self, u64 mask):
        cdef u64 ine[64]
        cdef u64 m, low_, top, tc, frontier, doms, res
        cdef int a, k, best
        cdef unordered_map[u64, u64].iterator it
        self.calls += 1
        best = -1
        top = 0
        m = mask
        while m:
            low_ = m & (0 - m)
            a = tsol_ctz64(m)
            m &= m - 1
            k = tsol_pop64(self.cols[a] & mask)
            if best < 0 or k < best:
                best = k
                top = low_
        tc = top
        frontier = top
        while frontier:
            a = tsol_ctz64(frontier)
            frontier &= frontier - 1
            doms = self.cols[a] & mask & ~tc
            tc |= doms
            frontier |= doms
        if self.use_cache:
            it = self.memo.find(tc)
            if it != self.memo.end():
                return dereference(it).second
        self.computed += 1
        if best == 0:
            res = top  # a Condorcet winner: nothing to recurse into
        else:
            m = tc
            while m:
                a = tsol_ctz64(m)
                m &= m - 1
                ine[a] = self.solve(self.cols[a] & tc)  # nonempty: TC is strongly connected
            res = _top_cycle(tc, ine, self.n)
        if self.use_cache:
            self.memo[tc] = res
        return res


def teq_exact_masks(py_rows, x_mask, use_cache=True):
    """Mirror of tsol._pykernel.teq_exact_masks."""
    cdef int n = len(py_rows)
    if n > 64:
        raise ValueError("native kernel caps at 64 alternatives")
    if x_mask == 0:
        raise ValueError("empty carrier")
    cdef _Exact ctx = _Exact()
    ctx.setup(py_rows, n, bool(use_cache))
    cdef u64 x = <u64> x_mask
    cdef u64 ine[64]
    cdef u64 m, sub
    cdef int a
    # the carrier counts once in each counter and is not shrunk to its top cycle
    ctx.calls += 1
    ctx.computed += 1
    m = x
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        sub = ctx.cols[a] & x
        ine[a] = ctx.solve(sub) if sub else 0
    cdef u64 teq = _top_cycle(x, ine, n)
    in_edges = [0] * n
    m = x
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        in_edges[a] = ine[a]
    return int(teq), in_edges, int(ctx.calls), int(ctx.computed)


cdef class _Heur(_Exact):
    """The heuristic's own recursion; ``solve`` is the inherited exact one."""
    cdef bint inner_exact
    cdef unordered_map[u64, u64] hmemo
    cdef u64 top_base
    cdef u64 top_ine[64]
    cdef int top_iterations

    cdef u64 proc(self, u64 mask, bint top):
        cdef u64 ine[64]
        cdef u64 rest[64]
        cdef u64 m, low_, sub, ta, seed, base, cur, found, res
        cdef int a, k, best, iterations
        cdef unordered_map[u64, u64].iterator it
        self.calls += 1
        if not top:
            it = self.hmemo.find(mask)
            if it != self.hmemo.end():
                return dereference(it).second
        self.computed += 1
        # seed with the alternatives whose dominator sets are smallest
        best = -1
        seed = 0
        m = mask
        while m:
            low_ = m & (0 - m)
            a = tsol_ctz64(m)
            m &= m - 1
            k = tsol_pop64(self.cols[a] & mask)
            if best < 0 or k < best:
                best = k
                seed = low_
            elif k == best:
                seed |= low_
        base = seed
        cur = seed
        m = mask
        while m:
            a = tsol_ctz64(m)
            m &= m - 1
            ine[a] = 0
        iterations = 0
        while True:
            iterations += 1
            found = 0
            m = cur
            while m:
                a = tsol_ctz64(m)
                m &= m - 1
                sub = self.cols[a] & mask
                if sub:
                    ta = self.solve(sub) if self.inner_exact else self.proc(sub, False)
                else:
                    ta = 0
                ine[a] |= ta
                found |= ta
            if found & ~base == 0:
                m = base
                while m:
                    a = tsol_ctz64(m)
                    m &= m - 1
                    rest[a] = ine[a] & base
                res = _top_cycle(base, rest, self.n)
                break
            cur = found
            base |= found
        self.hmemo[mask] = res
        if top:
            self.top_base = base
            self.top_iterations = iterations
            m = mask
            while m:
                a = tsol_ctz64(m)
                m &= m - 1
                self.top_ine[a] = ine[a]
        return res


def teq_heuristic_masks(py_rows, x_mask, inner_exact=False):
    """Mirror of tsol._pykernel.teq_heuristic_masks."""
    cdef int n = len(py_rows)
    if n > 64:
        raise ValueError("native kernel caps at 64 alternatives")
    if x_mask == 0:
        raise ValueError("empty carrier")
    cdef _Heur ctx = _Heur()
    ctx.setup(py_rows, n, True)
    ctx.inner_exact = bool(inner_exact)
    cdef u64 teq = ctx.proc(<u64> x_mask, True)
    in_edges = [0] * n
    cdef u64 m = <u64> x_mask
    cdef int a
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        in_edges[a] = ctx.top_ine[a]
    return (
        int(teq),
        int(ctx.top_base),
        in_edges,
        int(ctx.calls),
        int(ctx.computed),
        int(ctx.top_iterations),
    )


cdef class _Banks:
    cdef u64 rows[64]
    cdef u64 cols[64]
    cdef int n
    cdef int chain[64]
    cdef int found_depth

    cdef void setup(self, object py_rows, int n):
        self.n = n
        self.found_depth = 0
        _fill(self.rows, self.cols, py_rows, n)

    cdef bint dfs(self, u64 pool, u64 doms, int depth):
        cdef u64 m
        cdef int cand[64]
        cdef int score[64]
        cdef int cnt, i, j, u, v, su
        if doms == 0:
            self.found_depth = depth
            return True
        m = doms
        while m:
            v = tsol_ctz64(m)
            m &= m - 1
            if pool & self.cols[v] == 0:
                # v dominates the chain and everything that could extend it
                return False
        cnt = 0
        m = pool
        while m:
            u = tsol_ctz64(m)
            m &= m - 1
            cand[cnt] = u
            score[cnt] = tsol_pop64(self.rows[u] & pool)
            cnt += 1
        # stable insertion sort, descending score; index order kept on ties
        for i in range(1, cnt):
            u = cand[i]
            su = score[i]
            j = i - 1
            while j >= 0 and score[j] < su:
                cand[j + 1] = cand[j]
                score[j + 1] = score[j]
                j -= 1
            cand[j + 1] = u
            score[j + 1] = su
        for i in range(cnt):
            u = cand[i]
            self.chain[depth] = u
            if self.dfs(pool & self.rows[u], doms & self.cols[u], depth + 1):
                return True
        return False


def banks_member_masks(py_rows, x_mask, a):
    """Mirror of tsol._pykernel.banks_member_masks."""
    cdef int n = len(py_rows)
    if n > 64:
        raise ValueError("native kernel caps at 64 alternatives")
    cdef u64 x = <u64> x_mask
    cdef int head = a
    if not (x >> head) & 1:
        raise ValueError("queried alternative not in the carrier")
    cdef _Banks ctx = _Banks()
    ctx.setup(py_rows, n)
    ctx.chain[0] = head
    if not ctx.dfs(ctx.rows[head] & x, ctx.cols[head] & x, 1):
        return None
    return tuple(ctx.chain[i] for i in range(ctx.found_depth))


def banks_set_masks(py_rows, x_mask):
    """Mirror of tsol._pykernel.banks_set_masks."""
    cdef int n = len(py_rows)
    if n > 64:
        raise ValueError("native kernel caps at 64 alternatives")
    cdef u64 x = <u64> x_mask
    if x == 0:
        raise ValueError("empty carrier")
    cdef _Banks ctx = _Banks()
    ctx.setup(py_rows, n)
    cdef u64 res = 0
    cdef u64 m = x
    cdef int a
    while m:
        a = tsol_ctz64(m)
        m &= m - 1
        ctx.chain[0] = a
        if ctx.dfs(ctx.rows[a] & x, ctx.cols[a] & x, 1):
            res |= ONE << a
    return int(res)
