/* Compiled kernels over uint64 masks; contract-identical to the pure twin
 * _core_py.py, for carriers of 1 to 64 elements.
 *
 * Bit j of up[i] set means element i lies below element j (reflexive);
 * down is the transpose.  An order enters as (n, up, down), and topo_order
 * and least_full derive its topological order, top and bottom.
 * poset_index returns an order's down-masks, topo, top, bottom and upper
 * covers, one mask per element, or its first fault as (kind, i, j).
 * order_tables returns every pairwise table of an order, as the docstring
 * of the ordalg._kernels package states once: the lattice answer, the
 * sectional and relative pseudocomplement tables, and the distinct sets
 * U(x, y) with their lower sets, which distinct_lu computes once and the
 * star cells read too.  law_plan reads a suite of law terms that the shared
 * _common.law_compile has put in register form, one register per distinct
 * subterm, and law_scan runs a plan on rows, each arity's laws as one
 * loop nest; rrl_scan and divisibility_scan, which no library code calls,
 * take flat row-major sequences.
 * congruence_scan takes any number of operation tables as rows of element
 * indices and returns the least-member labels of every principal
 * congruence with the first witness of permutability, congruence
 * distributivity and weak regularity, each decided from the principal
 * congruences alone.  Every kernel raises
 * ValueError when n lies outside the sizes its fixed buffers hold, a mask
 * has bits outside the carrier (poset_index reports that as a fault), or a
 * table entry is not an element index (for law_scan: may be used as an
 * index it cannot be, or a law reads a constant the order lacks or an
 * absent table; law_recheck names the first such register, and the pure
 * twin walks the registers in the same order).
 * Build: python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <limits.h>
#include <string.h>

#if defined(_MSC_VER)
#include <intrin.h>
static __inline int ctz64(uint64_t x) { unsigned long i; _BitScanForward64(&i, x); return (int)i; }
static __inline int popcount64(uint64_t x) { return (int)__popcnt64(x); }
#else
static inline int ctz64(uint64_t x) { return __builtin_ctzll(x); }
static inline int popcount64(uint64_t x) { return __builtin_popcountll(x); }
#endif

#define FULL(n) (~(uint64_t)0 >> (64 - (n)))

/* The element x of mask with mask inside cone[x], or -1: the minimum of the
 * set when cone is up, its maximum when cone is down. */
static int extreme(uint64_t mask, const uint64_t *cone)
{
    for (uint64_t m = mask; m; m &= m - 1) {
        int x = ctz64(m);
        if (!(mask & ~cone[x]))
            return x;
    }
    return -1;
}

/* The minimal elements of mask: the x whose down-set meets mask in x alone. */
static uint64_t minimal(uint64_t mask, const uint64_t *down)
{
    uint64_t out = 0;
    for (uint64_t m = mask; m; m &= m - 1)
        out |= (mask & down[ctz64(m)]) == (m & -m) ? m & -m : 0;
    return out;
}

/* Common bounds of mask: lower ones when cone is down, upper when up. */
static uint64_t common_bounds(uint64_t full, const uint64_t *cone, uint64_t mask)
{
    for (; mask; mask &= mask - 1)
        full &= cone[ctz64(mask)];
    return full;
}

/* The fixed topological order every scan follows: the carrier sorted by
 * down-set size, index order within a size (a counting sort). */
static void topo_order(int n, const uint64_t *down, uint8_t *topo)
{
    int start[66] = {0};
    for (int i = 0; i < n; i++)
        start[popcount64(down[i]) + 1]++;
    for (int i = 1; i < 66; i++)
        start[i] += start[i - 1];
    for (int i = 0; i < n; i++)
        topo[start[popcount64(down[i])]++] = (uint8_t)i;
}

/* The least index whose mask is the whole carrier, or -1: the top from the
 * down-masks, the bottom from the up-masks. */
static int least_full(int n, const uint64_t *mask)
{
    for (int i = 0; i < n; i++)
        if (mask[i] == FULL(n))
            return i;
    return -1;
}

/* Check the argument count and read args[0] as n, which must lie in 1..hi. */
static int read_n(const char *name, PyObject *const *args, Py_ssize_t nargs,
                  Py_ssize_t want, int hi, int *n)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    long v = PyLong_AsLong(args[0]);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 1 || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s supports 1 <= n <= %d", name, hi);
        return -1;
    }
    *n = (int)v;
    return 0;
}

/* Read item as a uint64 word; 1 when it has no bit outside within, 0 when it
 * has one or cannot be read.  Only a non-integer leaves an exception set. */
static inline int read_word(PyObject *item, uint64_t within, uint64_t *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
    if (overflow <= 0) {
        *out = (uint64_t)v;
        return v >= 0 && !(*out & ~within);
    }
    /* a word with bit 63 set overflows the signed read */
    *out = PyLong_AsUnsignedLongLong(item);
    if (PyErr_Occurred()) {
        /* wider than 64 bits, so outside every carrier */
        if (PyErr_ExceptionMatches(PyExc_OverflowError))
            PyErr_Clear();
        return 0;
    }
    return !(*out & ~within);
}

/* Read the first n masks of seq; each must lie within the n-element carrier. */
static int read_masks(PyObject *seq, int n, uint64_t *out)
{
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence");
    if (!fast)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) >= n;
    for (int i = 0; ok && i < n; i++)
        ok = read_word(PySequence_Fast_GET_ITEM(fast, i), FULL(n), out + i);
    Py_DECREF(fast);
    if (!ok && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "expected %d masks within the carrier", n);
    return ok ? 0 : -1;
}

/* Read the first count entries of a sequence; each must be an index in 0..n-1. */
static int read_indices(PyObject *seq, int n, int count, int *out)
{
    PyObject *fast = PySequence_Fast(seq, "table must be a sequence");
    if (!fast)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) >= count;
    for (int i = 0; ok && i < count; i++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(fast, i), &overflow);
        ok = v >= 0 && v < n;
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    if (!ok && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "expected %d entries in 0..%d", count, n - 1);
    return ok ? 0 : -1;
}

static int value_error(const char *msg)
{
    PyErr_SetString(PyExc_ValueError, msg);
    return -1;
}

static PyObject *mask_tuple(const uint64_t *v, Py_ssize_t count)
{
    PyObject *out = PyTuple_New(count);
    for (Py_ssize_t i = 0; out && i < count; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(v[i]);
        if (!x)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, x);
    }
    return out;
}

/* The first n bytes of lab as a tuple of ints. */
static PyObject *label_tuple(const uint8_t *lab, int n)
{
    PyObject *out = PyTuple_New(n);
    for (int i = 0; out && i < n; i++) {
        PyObject *x = PyLong_FromLong(lab[i]);
        if (!x)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, x);
    }
    return out;
}

/* An element index, or None for a negative one. */
static PyObject *index_or_none(int x)
{
    return x < 0 ? Py_NewRef(Py_None) : PyLong_FromLong(x);
}

/* The n-by-n table v as a tuple of n row tuples; a negative cell reads None. */
static PyObject *int_rows(const int *v, int n)
{
    PyObject *out = PyTuple_New(n);
    for (int i = 0; out && i < n; i++) {
        PyObject *row = PyTuple_New(n);
        for (int j = 0; row && j < n; j++) {
            PyObject *cell = index_or_none(v[i * n + j]);
            if (!cell)
                Py_CLEAR(row);
            else
                PyTuple_SET_ITEM(row, j, cell);
        }
        if (!row)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, row);
    }
    return out;
}

static PyObject *closure(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t buf[64];
    int n;
    if (read_n("closure", args, nargs, 2, 64, &n) || read_masks(args[1], n, buf))
        return NULL;
    for (int i = 0; i < n; i++)
        buf[i] |= (uint64_t)1 << i;
    for (int k = 0; k < n; k++) {
        uint64_t bk = (uint64_t)1 << k, row = buf[k];
        for (int i = 0; i < n; i++)
            if (buf[i] & bk)
                buf[i] |= row;
    }
    return mask_tuple(buf, n);
}

/* (down, topo, top, bottom, covers) of an order's up-masks, covers[i] the
 * mask of i's upper covers (its strict upper bounds above none of the
 * others), or the first fault (kind, i, j) in the pure twin's order:
 * carrier bits and reflexivity for each i, then a cycle (j the least other
 * element above and below i) and, unless closed, transitivity for each i. */
static PyObject *poset_index(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64], db[64] = {0}, cov[64];
    uint8_t topo[64];
    int n;
    const char *kind = NULL;
    if (read_n("poset_index", args, nargs, 3, 64, &n))
        return NULL;
    int closed = PyObject_IsTrue(args[2]);
    PyObject *fast = closed < 0 ? NULL : PySequence_Fast(args[1], "masks must be a sequence");
    if (!fast)
        return NULL;
    if (PySequence_Fast_GET_SIZE(fast) < n) {
        Py_DECREF(fast);
        return PyErr_Format(PyExc_ValueError, "expected %d masks", n);
    }
    int i = 0;
    for (; i < n; i++) {
        if (!read_word(PySequence_Fast_GET_ITEM(fast, i), FULL(n), ub + i))
            kind = "carrier";
        else if (!(ub[i] >> i & 1))
            kind = "reflexive";
        if (kind)
            break;
    }
    Py_DECREF(fast);
    if (PyErr_Occurred())
        return NULL;
    if (kind)
        return Py_BuildValue("(siO)", kind, i, Py_None);
    for (i = 0; i < n; i++)
        for (uint64_t m = ub[i]; m; m &= m - 1)
            db[ctz64(m)] |= (uint64_t)1 << i;
    for (i = 0; i < n; i++) {
        uint64_t loop = ub[i] & db[i] & ~((uint64_t)1 << i), reach = 0;
        if (loop)
            return Py_BuildValue("(sii)", "cycle", i, ctz64(loop));
        for (uint64_t m = closed ? 0 : ub[i]; m; m &= m - 1)
            reach |= ub[ctz64(m)];
        if (!closed && reach != ub[i])
            return Py_BuildValue("(siO)", "transitive", i, Py_None);
    }
    for (i = 0; i < n; i++) {
        uint64_t strict = ub[i] & ~((uint64_t)1 << i);
        cov[i] = 0;
        for (uint64_t m = strict; m; m &= m - 1)
            if (!(strict & db[ctz64(m)] & ~(m & -m)))
                cov[i] |= m & -m;
    }
    topo_order(n, db, topo);
    return Py_BuildValue("(NNNNN)", mask_tuple(db, n), label_tuple(topo, n),
                         index_or_none(least_full(n, db)), index_or_none(least_full(n, ub)),
                         mask_tuple(cov, n));
}

/* The distinct sets U(x, y) = up[x] & up[y] in first-seen row-major order,
 * us[k] with its lower set low[k], and uid[x * n + y] the number of U(x, y);
 * returns how many there are.  U(x, y) is symmetric, so each set is first
 * seen at some y >= x and the upper triangle fixes the numbering; a hash of
 * the at most 2080 distinct sets finds a repeat. */
#define U_SLOTS 4096
static int distinct_lu(int n, const uint64_t *ub, const uint64_t *db, uint64_t *us, uint64_t *low,
                       int *uid)
{
    uint16_t slot[U_SLOTS] = {0};
    int k = 0;
    for (int x = 0; x < n; x++)
        for (int y = x; y < n; y++) {
            uint64_t u = ub[x] & ub[y];
            unsigned h = (unsigned)((u * 0x9E3779B97F4A7C15ull) >> 52);
            while (slot[h] && us[slot[h] - 1] != u)
                h = (h + 1) & (U_SLOTS - 1);
            if (!slot[h]) {
                us[k] = u;
                low[k] = common_bounds(FULL(n), db, u);
                slot[h] = (uint16_t)++k;
            }
            uid[x * n + y] = uid[y * n + x] = slot[h] - 1;
        }
    return k;
}

/* The lattice pairs run (topo[ra], topo[rb]) with rb >= ra in order, join
 * before meet, and the first failure is kept; a meet failure's frontier is
 * 0: two maximal common lower bounds have no join, and their pair comes
 * earlier in topo order.  A star cell is _common.star_cell: the minimum of
 * the intersection of the U(c, b) over the c with L(U(a, b)) & L(U(c, b))
 * the cone of b, then verified; L(U) is symmetric, so L(U(c, b)) is read
 * along row b.  A star cell depends on a only through U(a, b), so each
 * column computes one cell per distinct set: seen[id] is b + 1 once
 * cell[id] holds column b's.  A relative cell (a, b) is the greatest x
 * whose common lower bounds with a lie below b: x fails exactly when it
 * lies above some y <= a outside the cone of b, so the qualifying set is
 * a down-set, and the cell its maximum when it has one.  The join and meet
 * buffers hold the star and relative cells once the lattice answer is
 * built, and the lu rows share the low tuple's ints. */
static PyObject *order_tables(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64], db[64], us[64 * 65 / 2], low[64 * 65 / 2], frontier = 0;
    uint8_t topo[64];
    int uid[64 * 64], join[64 * 64], meet[64 * 64], n, fa = 0, fb = 0;
    const char *kind = NULL;
    if (read_n("order_tables", args, nargs, 3, 64, &n) || read_masks(args[1], n, ub)
        || read_masks(args[2], n, db))
        return NULL;
    int k = distinct_lu(n, ub, db, us, low, uid);
    topo_order(n, db, topo);
    for (int ra = 0; !kind && ra < n; ra++)
        for (int rb = ra; !kind && rb < n; rb++) {
            int a = topo[ra], b = topo[rb];
            uint64_t u = ub[a] & ub[b];
            int j = extreme(u, ub), m = j < 0 ? -1 : extreme(db[a] & db[b], db);
            if (m < 0) {
                kind = j < 0 ? "join" : "meet";
                fa = a, fb = b;
                frontier = j < 0 ? minimal(u, db) : 0;
            }
            join[a * n + b] = join[b * n + a] = j;
            meet[a * n + b] = meet[b * n + a] = m;
        }
    /* "N" takes the new objects' references, also when a conversion fails */
    PyObject *lattice = kind ? Py_BuildValue("(siiK)", kind, fa, fb, (unsigned long long)frontier)
                             : Py_BuildValue("(NN)", int_rows(join, n), int_rows(meet, n));
    if (!lattice)
        return NULL;
    int *star = join, *rel = meet, star_total = 1, rel_total = 1;
    uint64_t full = FULL(n);
    uint8_t seen[64 * 65 / 2] = {0};
    int8_t cell[64 * 65 / 2];
    for (int b = 0; b < n; b++)
        for (int a = 0; a < n; a++) {
            int id = uid[a * n + b];
            uint64_t lu_ab = low[id], lb = db[b], t = full, above = 0;
            if (seen[id] != b + 1) {
                for (int c = 0; c < n; c++)
                    if ((lu_ab & low[uid[b * n + c]]) == lb)
                        t &= ub[c] & ub[b];
                int d = extreme(t, ub);
                cell[id] = (int8_t)((d >= 0 && (db[d] >> b) & 1 && (lu_ab & db[d]) == lb) ? d : -1);
                seen[id] = (uint8_t)(b + 1);
            }
            star[a * n + b] = cell[id];
            star_total &= star[a * n + b] >= 0;
            for (uint64_t m = db[a] & ~db[b]; m; m &= m - 1)
                above |= ub[ctz64(m)];
            rel[a * n + b] = extreme(full & ~above, db);
            rel_total &= rel[a * n + b] >= 0;
        }
    PyObject *lows = mask_tuple(low, k), *lu = lows ? PyTuple_New(n) : NULL;
    for (int x = 0; lu && x < n; x++) {
        PyObject *row = PyTuple_New(n);
        if (!row) {
            Py_CLEAR(lu);
            break;
        }
        for (int y = 0; y < n; y++)
            PyTuple_SET_ITEM(row, y, Py_NewRef(PyTuple_GET_ITEM(lows, uid[x * n + y])));
        PyTuple_SET_ITEM(lu, x, row);
    }
    if (!lu) {
        Py_XDECREF(lows);
        Py_DECREF(lattice);
        return NULL;
    }
    return Py_BuildValue("(N(NN)(NN)(NNNN))", lattice, int_rows(star, n),
                         PyBool_FromLong(star_total), int_rows(rel, n), PyBool_FromLong(rel_total),
                         mask_tuple(us, k), int_rows(uid, n), lows, lu);
}

/* No library caller: perfbench/twins.py still calls it by name. */
static PyObject *rrl_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64];
    int jt[64 * 64], mt[64 * 64], it[64 * 64], n, bits = 0;
    if (read_n("rrl_scan", args, nargs, 6, 64, &n) || read_masks(args[1], n, ub))
        return NULL;
    long top = PyLong_AsLong(args[2]);
    if ((top < 0 || top >= n) && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "top must lie in 0..%d", n - 1);
    if (PyErr_Occurred() || read_indices(args[3], n, n * n, jt)
        || read_indices(args[4], n, n * n, mt) || read_indices(args[5], n, n * n, it))
        return NULL;
    /* bit 0: commutative groupoid with unit */
    for (int a = 0; a < n; a++) {
        if (mt[top * n + a] != a)
            bits |= 1;
        for (int b = 0; b < n; b++)
            if (mt[a * n + b] != mt[b * n + a])
                bits |= 1;
    }
    /* bit 1: monotone multiplication */
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            if ((ub[a] >> b) & 1 && a != b) {
                const int *ma = mt + a * n, *mb = mt + b * n;
                for (int c = 0; c < n; c++) {
                    if (!((ub[ma[c]] >> mb[c]) & 1))
                        bits |= 2;
                    if (!((ub[mt[c * n + a]] >> mt[c * n + b]) & 1))
                        bits |= 2;
                }
            }
    /* bits 2 and 3: adjointness forward and backward */
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++) {
            int iab = it[a * n + b];
            const int *mab = mt + jt[a * n + b] * n;
            for (int c = 0; c < n; c++) {
                int cb = jt[c * n + b], rhs = (ub[cb] >> iab) & 1;
                if ((ub[mab[cb]] >> b) & 1) {
                    if (!rhs)
                        bits |= 4;
                } else if (rhs)
                    bits |= 8;
            }
        }
    return PyLong_FromLong(bits);
}

/* No library caller: perfbench/twins.py still calls it by name. */
static PyObject *divisibility_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int jt[64 * 64], mt[64 * 64], it[64 * 64], n;
    if (read_n("divisibility_scan", args, nargs, 4, 64, &n) || read_indices(args[1], n, n * n, jt)
        || read_indices(args[2], n, n * n, mt) || read_indices(args[3], n, n * n, it))
        return NULL;
    for (int x = 0; x < n; x++)
        for (int y = 0; y < n; y++)
            if (mt[jt[x * n + y] * n + it[x * n + y]] != y)
                Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

/* law_scan opcodes, numbered as _common.LAW_OPS, and the number
 * of tables both twins take. */
enum { L_VAR, L_CONST, L_TABLE, L_UP, L_DOWN, L_LEQ, L_EQ, L_AND, L_SUBSET, L_OPS };
#define LAW_TABLES 8
/* the most distinct masks U(x, y) = up[x] & up[y] on 64 elements, which is
 * the widest table a product lowered over them needs */
#define LAW_WIDTH 2080

/* The checked inputs of one law_scan call and what it derives from the
 * order: topo, and the constants top and bottom (-1 when absent). */
struct law_env {
    int n, ntables, consts[2];
    uint8_t topo[64];
    uint64_t up[64], down[64];
    /* bound[t]: the largest entry of table t */
    uint64_t *tab[LAW_TABLES], width[LAW_TABLES], bound[LAW_TABLES];
};

/* Read the tables: square sequences of rows of words within the carrier; an
 * empty one is absent.  *buf receives one block that holds them all. */
static int law_tables(PyObject *seq, struct law_env *e, uint64_t **buf)
{
    PyObject *fast = PySequence_Fast(seq, "tables must be a sequence"), *tabs[LAW_TABLES];
    if (!fast)
        return -1;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast), total = 0, got = 0;
    int ok = count <= LAW_TABLES;
    for (; ok && got < count; got++) {
        tabs[got] = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, got),
                                    "a table must be a sequence");
        if (!tabs[got])
            break;
        Py_ssize_t w = PySequence_Fast_GET_SIZE(tabs[got]);
        ok = w <= LAW_WIDTH;
        e->width[got] = (uint64_t)w;
        total += w * w;
    }
    ok = ok && got == count;
    *buf = ok ? PyMem_Malloc((total ? total : 1) * sizeof **buf) : NULL;
    if (ok && !*buf) {
        PyErr_NoMemory();
        ok = 0;
    }
    uint64_t *out = *buf;
    for (Py_ssize_t t = 0; ok && t < count; t++) {
        Py_ssize_t w = (Py_ssize_t)e->width[t];
        e->tab[t] = out;
        e->bound[t] = 0;
        for (Py_ssize_t i = 0; ok && i < w; i++) {
            PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(tabs[t], i),
                                            "a table row must be a sequence");
            ok = row && PySequence_Fast_GET_SIZE(row) == w;
            for (Py_ssize_t j = 0; ok && j < w; j++, out++) {
                ok = read_word(PySequence_Fast_GET_ITEM(row, j), FULL(e->n), out);
                if (ok && *out > e->bound[t])
                    e->bound[t] = *out;
            }
            Py_XDECREF(row);
        }
    }
    while (got > 0)
        Py_DECREF(tabs[--got]);
    Py_DECREF(fast);
    e->ntables = (int)count;
    if (!ok && !PyErr_Occurred())
        value_error("law_scan takes at most 8 tables, each square, at most 2080 wide, "
                  "with masks within the carrier");
    return ok ? 0 : -1;
}

/* A batch of programs of one arity in register form: register r holds the
 * result of op on registers x and y and reads the variables in the mask
 * vars (bit i for variable i).  Program k of the batch, the program[k]th
 * of the suite, leaves register result[k]. */
struct law_reg { int op, arg, x, y, vars; };
struct law_batch {
    int arity, len, count, *result, *program;
    struct law_reg *reg;
};

/* A suite's plan: one batch for each arity, in one block with the arity
 * of each program in suite order; size counts the registers of all four.
 * A capsule named LAW_PLAN owns it. */
struct law_plan {
    Py_ssize_t count, size;
    struct law_batch batch[4];
    uint8_t *arity;
};
#define LAW_PLAN "ordalg._core_c.law_plan"

static int law_pops(int op)
{
    return op <= L_CONST ? 0 : op == L_UP || op == L_DOWN ? 1 : 2;
}

/* Whether the constant or table that op pushes exists in this call's
 * order or tables; any other op pushes none. */
static int law_present(const struct law_env *e, int op, int arg)
{
    return op == L_CONST ? e->consts[arg] >= 0
           : op != L_TABLE || (arg < e->ntables && e->width[arg]);
}

/* Check that op, over operands that hold at most bx and by, uses no value
 * as an index that may reach what it indexes, and set *most to the most
 * its result holds. */
static int law_bound(const struct law_env *e, int op, int arg, uint64_t bx, uint64_t by,
                     uint64_t *most)
{
    uint64_t n = (uint64_t)e->n, limit = op == L_TABLE ? e->width[arg] : n;
    int indexes = op == L_TABLE || op == L_LEQ || op == L_UP || op == L_DOWN;
    if (indexes && (bx >= limit || by >= limit))
        return value_error("law program indexes with a value that may be out of range");
    *most = op <= L_CONST ? n - 1
            : op == L_TABLE ? e->bound[arg]
            : op <= L_DOWN ? UINT64_MAX
            : op == L_AND ? (bx < by ? bx : by) : 1;
    return 0;
}

/* Check a batch against this call's order and tables, register by
 * register: each constant or table it pushes is present, and every value
 * used as an index stays below what it indexes, by the bounds of the
 * tables, constants and variables it comes from.  bound[r] receives the
 * most register r holds. */
static int law_recheck(const struct law_env *e, const struct law_batch *b, uint64_t *bound)
{
    for (int r = 0; r < b->len; r++) {
        const struct law_reg *g = b->reg + r;
        int pops = law_pops(g->op);
        if (!law_present(e, g->op, g->arg))
            return value_error("law program operand out of range");
        if (law_bound(e, g->op, g->arg, pops ? bound[g->x] : 0, pops ? bound[g->y] : 0, bound + r))
            return -1;
    }
    return 0;
}

/* Read t, a tuple of count ints, into out; 0 when it is not one.  A value
 * that does not fit an int reads as -1, which no field takes. */
static int law_ints(PyObject *t, Py_ssize_t count, int *out)
{
    int ok = PyTuple_Check(t) && PyTuple_GET_SIZE(t) == count;
    for (Py_ssize_t i = 0; ok && i < count; i++) {
        PyObject *item = PyTuple_GET_ITEM(t, i);
        int overflow = 0;
        long v = PyLong_Check(item) ? PyLong_AsLongAndOverflow(item, &overflow) : (ok = 0);
        out[i] = overflow || v < INT_MIN || v > INT_MAX ? -1 : (int)v;
    }
    return ok;
}

/* Read register r of a batch of arity a, or return 0 when it is malformed:
 * op and arg in range (arg 0 for an op that takes none), a leaf's operands
 * 0, any other op's earlier registers, the same one twice for up and down.
 * Its vars are derived from its operands'. */
static int law_register(PyObject *item, int a, int r, struct law_reg *reg)
{
    int v[4];
    if (!law_ints(item, 4, v))
        return 0;
    int op = v[0], arg = v[1], x = v[2], y = v[3];
    int pops = op >= 0 && op < L_OPS ? law_pops(op) : -1;
    if (pops < 0
        || !(op == L_VAR ? arg >= 0 && arg < a
             : op == L_CONST ? arg == 0 || arg == 1
             : op == L_TABLE ? arg >= 0 && arg < LAW_TABLES : !arg)
        || !(pops ? x >= 0 && x < r && y >= 0 && y < r && (pops == 2 || x == y) : !x && !y))
        return 0;
    reg[r] = (struct law_reg){op, arg, x, y,
                              op == L_VAR ? 1 << arg : pops ? reg[x].vars | reg[y].vars : 0};
    return 1;
}

static PyObject *law_malformed(void)
{
    PyErr_SetString(PyExc_ValueError, "a compiled suite is (registers, results) as law_compile "
                    "makes it: each register in range and read after its operands");
    return NULL;
}

static void law_plan_free(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, LAW_PLAN));
}

/* The plan of a compiled suite, (registers, results) from the shared
 * _common.law_compile, which makes every check that reads no call's inputs; this
 * reader checks only the structure law_run relies on to stay within its
 * buffers.  registers holds one tuple of registers per arity, results one
 * (arity, register) per program, the register in its arity's batch. */
static PyObject *law_plan(PyObject *self, PyObject *compiled)
{
    int pair = PyTuple_Check(compiled) && PyTuple_GET_SIZE(compiled) == 2;
    PyObject *regs = pair ? PyTuple_GET_ITEM(compiled, 0) : NULL;
    PyObject *results = pair ? PyTuple_GET_ITEM(compiled, 1) : NULL;
    int ok = regs && PyTuple_Check(regs) && PyTuple_GET_SIZE(regs) == 4 && PyTuple_Check(results);
    Py_ssize_t count = ok ? PyTuple_GET_SIZE(results) : 0, total = 0;
    for (int a = 0; ok && a < 4; a++) {
        PyObject *batch = PyTuple_GET_ITEM(regs, a);
        Py_ssize_t len = PyTuple_Check(batch) ? PyTuple_GET_SIZE(batch) : INT_MAX;
        ok = len < INT_MAX;
        total += len;
    }
    if (!ok)
        return law_malformed();
    /* after the plan, its block holds the registers, the results, the
     * program indices and the arities */
    struct law_plan *pl = PyMem_Malloc(sizeof *pl + total * sizeof(struct law_reg)
                                       + count * (2 * sizeof(int) + 1));
    if (!pl)
        return PyErr_NoMemory();
    struct law_reg *reg = (struct law_reg *)(pl + 1);
    int *result = (int *)(reg + total), *program = result + count, v[2];
    *pl = (struct law_plan){count, total, .arity = (uint8_t *)(program + count)};
    for (int a = 1; ok && a <= 4; a++) {
        PyObject *batch = PyTuple_GET_ITEM(regs, a - 1);
        struct law_batch *b = pl->batch + a - 1;
        *b = (struct law_batch){a, (int)PyTuple_GET_SIZE(batch), 0, result, program, reg};
        for (int r = 0; ok && r < b->len; r++)
            ok = law_register(PyTuple_GET_ITEM(batch, r), a, r, reg);
        for (Py_ssize_t p = 0; ok && p < count; p++)
            if ((ok = law_ints(PyTuple_GET_ITEM(results, p), 2, v) && v[0] >= 1 && v[0] <= 4)
                && v[0] == a) {
                ok = v[1] >= 0 && v[1] < b->len;
                pl->arity[p] = (uint8_t)a;
                program[b->count] = (int)p;
                result[b->count++] = v[1];
            }
        reg += b->len;
        result += b->count;
        program += b->count;
    }
    PyObject *capsule = ok ? PyCapsule_New(pl, LAW_PLAN, law_plan_free) : NULL;
    if (!capsule)
        PyMem_Free(pl);
    return capsule || PyErr_Occurred() ? capsule : law_malformed();
}

/* Run a checked batch over every tuple in topological order, in one loop
 * nest.  The innermost variables whose tuples fit in 64 row positions
 * (one, unless n is at most 8) are the row variables, the others the
 * outer ones; a counter at each row variable gives its rank at each row
 * position.  A register that reads a row variable is a row over all their
 * tuples, in order; any other is a single value.  Each operation runs one
 * loop for each shape of its operands, row or single, so a single operand
 * is read once, not at every row position.  The first outer step computes
 * every register; each later one only those that read a variable that
 * changed: the outer variable that moved and the outer ones after it,
 * which reset.  A register that reads no outer variable is thus computed
 * once per batch.  A program's result is tested only where its register
 * was computed: a value that did not fail there does not fail at a later
 * step that leaves it as it was.  The scan stops once all programs have
 * failed.  val holds 64 words per register; witness[p] receives the least
 * failing tuple of program p of the call, and its first word stays
 * UINT64_MAX when the program passes. */
static void law_run(const struct law_env *e, const struct law_batch *b, uint64_t (*val)[64],
                    uint64_t (*witness)[4])
{
    int n = e->n, first = b->arity - 1, count = n, rank[4] = {0}, left = b->count;
    uint8_t rowrank[4][64];
    while (first > 0 && count * n <= 64) {
        first--;
        count *= n;
    }
    /* rows: the row variables as a mask; changed: the variables that
     * changed at this step, or -1 at the first */
    int rows = (1 << b->arity) - (1 << first), changed = -1;
    /* rowrank[i][j]: the rank of row variable i at row position j, which
     * moves on once every stride positions */
    for (int i = b->arity - 1, stride = 1; i >= first; stride *= n, i--)
        for (int j = 0, r = 0, s = 0; j < count; j++) {
            rowrank[i][j] = (uint8_t)r;
            if (++s == stride) {
                s = 0;
                r = r + 1 == n ? 0 : r + 1;
            }
        }
    for (int k = 0; k < b->count; k++)
        witness[b->program[k]][0] = UINT64_MAX;
    for (;;) {
        for (int i = 0; i < b->len; i++) {
            const struct law_reg *r = b->reg + i;
            if (changed != -1 && !(r->vars & changed))
                continue;
            int op = r->op, arg = r->arg;
            int xrow = b->reg[r->x].vars & rows, yrow = b->reg[r->y].vars & rows;
            const uint64_t *restrict x = val[r->x], *restrict y = val[r->y];
            uint64_t *restrict v = val[i];
/* v = expr over the operands a and b, in the loop for their shapes */
#define LAW_ROWS(expr)                                        \
    if (xrow && yrow)                                         \
        for (int j = 0; j < count; j++) {                     \
            uint64_t a = x[j], b = y[j];                      \
            v[j] = (expr);                                    \
        }                                                     \
    else if (xrow) {                                          \
        uint64_t b = y[0];                                    \
        for (int j = 0; j < count; j++) {                     \
            uint64_t a = x[j];                                \
            v[j] = (expr);                                    \
        }                                                     \
    } else if (yrow) {                                        \
        uint64_t a = x[0];                                    \
        for (int j = 0; j < count; j++) {                     \
            uint64_t b = y[j];                                \
            v[j] = (expr);                                    \
        }                                                     \
    } else {                                                  \
        uint64_t a = x[0], b = y[0];                          \
        v[0] = (expr);                                        \
    }                                                         \
    break
            switch (op) {
            case L_VAR:
                if (arg >= first)
                    for (int j = 0; j < count; j++)
                        v[j] = (uint64_t)e->topo[rowrank[arg][j]];
                else
                    v[0] = (uint64_t)e->topo[rank[arg]];
                break;
            case L_CONST:
                v[0] = (uint64_t)e->consts[arg];
                break;
            case L_TABLE: {
                const uint64_t *t = e->tab[arg], w = e->width[arg];
                LAW_ROWS(t[a * w + b]);
            }
            case L_UP:
            case L_DOWN: {
                const uint64_t *cone = op == L_UP ? e->up : e->down;
                if (xrow)
                    for (int j = 0; j < count; j++)
                        v[j] = cone[x[j]];
                else
                    v[0] = cone[x[0]];
                break;
            }
            case L_LEQ: {
                const uint64_t *up = e->up;
                LAW_ROWS(up[a] >> b & 1);
            }
            case L_EQ:
                LAW_ROWS(a == b);
            case L_AND:
                LAW_ROWS(a & b);
            default: /* L_SUBSET */
                LAW_ROWS(!(a & ~b));
            }
#undef LAW_ROWS
        }
        for (int k = 0; k < b->count; k++) {
            uint64_t *w = witness[b->program[k]];
            int r = b->result[k], vars = b->reg[r].vars;
            if (w[0] != UINT64_MAX || (changed != -1 && !(vars & changed)))
                continue;
            for (int j = 0, len = vars & rows ? count : 1; j < len; j++)
                if (!val[r][j]) {
                    for (int i = 0; i < b->arity; i++)
                        w[i] = (uint64_t)e->topo[i >= first ? rowrank[i][j] : rank[i]];
                    left--;
                    break;
                }
        }
        int moved = first - 1;
        while (moved >= 0 && ++rank[moved] == n)
            rank[moved--] = 0;
        if (!left || moved < 0)
            return;
        changed = (1 << first) - (1 << moved);
    }
}

/* Check a plan against this call's inputs and run it: each program's
 * least failing tuple, or None. */
static PyObject *law_results(const struct law_env *e, const struct law_plan *pl)
{
    Py_ssize_t count = pl->count, size = pl->size;
    /* one block: the registers' bounds and values, and each program's witness */
    uint64_t *bound = PyMem_Malloc((size * 65 + (count + 1) * 4) * sizeof *bound);
    if (!bound)
        return PyErr_NoMemory();
    uint64_t (*val)[64] = (uint64_t (*)[64])(bound + size);
    uint64_t (*witness)[4] = (uint64_t (*)[4])(val + size);
    int ok = 1;
    for (int a = 0; ok && a < 4; a++)
        ok = !law_recheck(e, pl->batch + a, bound);
    for (int a = 0; ok && a < 4; a++)
        if (pl->batch[a].count)
            law_run(e, pl->batch + a, val, witness);
    PyObject *result = ok ? PyList_New(count) : NULL;
    for (Py_ssize_t p = 0; result && p < count; p++) {
        PyObject *item = witness[p][0] == UINT64_MAX ? Py_NewRef(Py_None)
                         : mask_tuple(witness[p], pl->arity[p]);
        if (item)
            PyList_SET_ITEM(result, p, item);
        else
            Py_CLEAR(result);
    }
    PyMem_Free(bound);
    return result;
}

/* Every call reads its order and tables and checks its plan against them. */
static PyObject *law_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct law_env e;
    uint64_t *buf = NULL;
    if (read_n("law_scan", args, nargs, 5, 64, &e.n) || read_masks(args[1], e.n, e.up)
        || read_masks(args[2], e.n, e.down))
        return NULL;
    const struct law_plan *pl = PyCapsule_IsValid(args[4], LAW_PLAN)
                                ? PyCapsule_GetPointer(args[4], LAW_PLAN) : NULL;
    if (!pl)
        return PyErr_Format(PyExc_TypeError, "law_scan takes a plan that law_plan made");
    topo_order(e.n, e.down, e.topo);
    e.consts[0] = least_full(e.n, e.down);
    e.consts[1] = least_full(e.n, e.up);
    PyObject *result = law_tables(args[3], &e, &buf) ? NULL : law_results(&e, pl);
    PyMem_Free(buf);
    return result;
}

/* A partition by least-member labels, with the members of each block as
 * a mask under its label: _common.merge, on masks. */
struct blocks {
    uint8_t lab[64];
    uint64_t mem[64];
};

static void blocks_init(struct blocks *u, int n)
{
    for (int i = 0; i < n; i++) {
        u->lab[i] = (uint8_t)i;
        u->mem[i] = (uint64_t)1 << i;
    }
}

static void blocks_merge(struct blocks *u, int x, int y)
{
    int lx = u->lab[x], ly = u->lab[y];
    if (lx > ly) {
        int t = lx;
        lx = ly;
        ly = t;
    }
    for (uint64_t m = u->mem[ly]; m; m &= m - 1)
        u->lab[ctz64(m)] = (uint8_t)lx;
    u->mem[lx] |= u->mem[ly];
}

/* Merge every block of the partition with least-member labels other. */
static void blocks_join(struct blocks *u, int n, const uint8_t *other)
{
    for (int i = 0; i < n; i++)
        if (u->lab[i] != u->lab[other[i]])
            blocks_merge(u, i, other[i]);
}

/* The least congruence relating a and b: each pair that merges two blocks
 * is pushed once, and popping it merges its translates through every
 * table.  At most n - 1 merges, so the stack holds at most n pairs. */
static void principal(int n, Py_ssize_t k, const uint8_t *ops, int a, int b, struct blocks *u)
{
    uint8_t work[2 * 64];
    int top = 1;
    blocks_init(u, n);
    blocks_merge(u, a, b);
    work[0] = (uint8_t)a;
    work[1] = (uint8_t)b;
    while (top) {
        top--;
        int x = work[2 * top], y = work[2 * top + 1];
        for (Py_ssize_t t = 0; t < k; t++) {
            const uint8_t *tab = ops + t * n * n;
            for (int z = 0; z < n; z++)
                for (int side = 0; side < 2; side++) {
                    int p = side ? tab[z * n + x] : tab[x * n + z];
                    int q = side ? tab[z * n + y] : tab[y * n + z];
                    if (u->lab[p] != u->lab[q]) {
                        blocks_merge(u, p, q);
                        work[2 * top] = (uint8_t)p;
                        work[2 * top + 1] = (uint8_t)q;
                        top++;
                    }
                }
        }
    }
}

/* Read a table: exactly n rows of exactly n element indices. */
static int read_table(PyObject *seq, int n, uint8_t *out)
{
    int row[64];
    PyObject *fast = PySequence_Fast(seq, "a table must be a sequence");
    if (!fast)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) == n;
    for (int i = 0; ok && i < n; i++) {
        PyObject *r = PySequence_Fast_GET_ITEM(fast, i);
        Py_ssize_t len = PySequence_Size(r);
        ok = len == n && !read_indices(r, n, n, row);
        for (int j = 0; ok && j < n; j++)
            out[i * n + j] = (uint8_t)row[j];
    }
    Py_DECREF(fast);
    if (!ok && (!PyErr_Occurred() || PyErr_ExceptionMatches(PyExc_ValueError))) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "expected tables of %d rows of %d entries in 0..%d",
                     n, n, n - 1);
    }
    return ok ? 0 : -1;
}

/* Distinct principals are found by a hash of their labels; there are at
 * most 2016 of them. */
#define CONG_SLOTS 4096

/* The inputs and principal congruences of one congruence_scan call.
 * Principal i is Θ(pa[i], pb[i]), pairs in row-major order; lab and mem
 * hold n labels and n block masks (the block of each element) per
 * principal; distinct lists the first principal of each distinct
 * congruence, in order. */
struct cong {
    int n, m, ndistinct, one, pid[64 * 64], distinct[64 * 63 / 2];
    uint8_t pa[64 * 63 / 2], pb[64 * 63 / 2], *lab;
    uint64_t *mem;
};

/* The first (x, y, z) with no w such that x Θ(y, z) w Θ(x, y) z, or 0. */
static int cong_permutable(const struct cong *s, int *w)
{
    int n = s->n;
    for (int x = 0; x < n; x++)
        for (int y = 0; y < n; y++) {
            if (y == x)
                continue;
            const uint64_t *txy = s->mem + (size_t)s->pid[x * n + y] * n;
            for (int z = 0; z < n; z++)
                if (z != x && z != y && !(s->mem[(size_t)s->pid[y * n + z] * n + x] & txy[z])) {
                    w[0] = x, w[1] = y, w[2] = z;
                    return 1;
                }
        }
    return 0;
}

/* The first join-irreducible distinct principal j that is not join-prime,
 * as in the pure twin; b receives the join of the principals before c. */
static int cong_distributive(const struct cong *s, int *j_out, uint8_t *b, int *c_out)
{
    int n = s->n;
    struct blocks u;
    for (int jj = 0; jj < s->ndistinct; jj++) {
        int j = s->distinct[jj], a = s->pa[j], bj = s->pb[j], reducible = 0;
        const uint8_t *lj = s->lab + (size_t)j * n;
        /* Θ(c, d) <= j exactly when j relates c and d */
        blocks_init(&u, n);
        for (int pp = 0; pp < s->ndistinct && !reducible; pp++) {
            int p = s->distinct[pp];
            if (p != j && lj[s->pa[p]] == lj[s->pb[p]]) {
                blocks_join(&u, n, s->lab + (size_t)p * n);
                reducible = u.lab[a] == u.lab[bj];
            }
        }
        if (reducible)
            continue;
        blocks_init(&u, n);
        for (int cc = 0; cc < s->ndistinct; cc++) {
            const uint8_t *lc = s->lab + (size_t)s->distinct[cc] * n;
            if (lc[a] == lc[bj])
                continue;
            memcpy(b, u.lab, n);
            blocks_join(&u, n, lc);
            if (u.lab[a] == u.lab[bj]) {
                *j_out = j;
                *c_out = s->distinct[cc];
                return 1;
            }
        }
    }
    return 0;
}

/* The first distinct principal Θ(x, y) that x and y do not relate in the
 * join r of the Θ(one, z) over its block of one, or 0. */
static int cong_regular(const struct cong *s, uint8_t *r, int *d_out)
{
    int n = s->n, one = s->one;
    struct blocks u;
    for (int dd = 0; dd < s->ndistinct; dd++) {
        int d = s->distinct[dd];
        const uint8_t *ld = s->lab + (size_t)d * n;
        blocks_init(&u, n);
        for (int z = 0; z < n; z++)
            if (z != one && ld[z] == ld[one])
                blocks_join(&u, n, s->lab + (size_t)s->pid[one * n + z] * n);
        if (u.lab[s->pa[d]] != u.lab[s->pb[d]]) {
            memcpy(r, u.lab, n);
            *d_out = d;
            return 1;
        }
    }
    return 0;
}

/* Witnesses as the pure twin returns them, each principal congruence the
 * same tuple as in labels. */
static PyObject *cong_result(const struct cong *s, PyObject *labels)
{
    int n = s->n, w[3], j, c, d;
    uint8_t b[64], r[64];
#define LABELS(i) Py_NewRef(PyTuple_GET_ITEM(labels, (i)))
    PyObject *perm = Py_NewRef(Py_None), *dist = Py_NewRef(Py_None), *reg = Py_NewRef(Py_None);
    if (cong_permutable(s, w)) {
        Py_SETREF(perm, Py_BuildValue("(NN(ii))", LABELS(s->pid[w[0] * n + w[1]]),
                                      LABELS(s->pid[w[1] * n + w[2]]), w[0], w[2]));
    }
    if (perm && cong_distributive(s, &j, b, &c))
        Py_SETREF(dist, Py_BuildValue("(NNN)", LABELS(j), label_tuple(b, n), LABELS(c)));
    if (perm && dist && s->one >= 0 && cong_regular(s, r, &d))
        Py_SETREF(reg, Py_BuildValue("(NN)", label_tuple(r, n), LABELS(d)));
#undef LABELS
    if (!perm || !dist || !reg) {
        Py_XDECREF(perm);
        Py_XDECREF(dist);
        Py_XDECREF(reg);
        Py_DECREF(labels);
        return NULL;
    }
    return Py_BuildValue("(NNNN)", labels, perm, dist, reg);
}

static PyObject *congruence_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct cong s;
    if (read_n("congruence_scan", args, nargs, 3, 64, &s.n))
        return NULL;
    int n = s.n;
    s.one = -1;
    if (args[2] != Py_None) {
        long one = PyLong_AsLong(args[2]);
        if ((one < 0 || one >= n) && !PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "one must lie in 0..%d", n - 1);
        if (PyErr_Occurred())
            return NULL;
        s.one = (int)one;
    }
    PyObject *fast = PySequence_Fast(args[1], "tables must be a sequence");
    if (!fast)
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(fast);
    s.m = n * (n - 1) / 2;
    uint8_t *ops = PyMem_Malloc((size_t)k * n * n + 1);
    s.lab = PyMem_Malloc((size_t)s.m * n + 1);
    s.mem = PyMem_Malloc(((size_t)s.m * n + 1) * sizeof *s.mem);
    PyObject *result = NULL;
    int ok = ops && s.lab && s.mem;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t t = 0; ok && t < k; t++)
        ok = !read_table(PySequence_Fast_GET_ITEM(fast, t), n, ops + t * n * n);
    if (ok) {
        uint16_t slot[CONG_SLOTS] = {0};
        struct blocks u;
        PyObject *labels = PyTuple_New(s.m);
        s.ndistinct = 0;
        for (int a = 0, i = 0; labels && a < n; a++)
            for (int b = a + 1; labels && b < n; b++, i++) {
                uint8_t *lab = s.lab + (size_t)i * n;
                principal(n, k, ops, a, b, &u);
                memcpy(lab, u.lab, n);
                for (int e = 0; e < n; e++)
                    s.mem[(size_t)i * n + e] = u.mem[u.lab[e]];
                s.pid[a * n + b] = s.pid[b * n + a] = i;
                s.pa[i] = (uint8_t)a;
                s.pb[i] = (uint8_t)b;
                uint64_t h = 0xcbf29ce484222325ull;
                for (int e = 0; e < n; e++)
                    h = (h ^ lab[e]) * 0x100000001b3ull;
                unsigned at = (unsigned)(h >> 52);
                while (slot[at] && memcmp(s.lab + (size_t)(slot[at] - 1) * n, lab, n))
                    at = (at + 1) & (CONG_SLOTS - 1);
                if (!slot[at]) {
                    slot[at] = (uint16_t)(i + 1);
                    s.distinct[s.ndistinct++] = i;
                }
                PyObject *tup = label_tuple(lab, n);
                if (!tup)
                    Py_CLEAR(labels);
                else
                    PyTuple_SET_ITEM(labels, i, tup);
            }
        if (labels)
            result = cong_result(&s, labels);
    }
    Py_DECREF(fast);
    PyMem_Free(ops);
    PyMem_Free(s.lab);
    PyMem_Free(s.mem);
    return result;
}

/* Element i has a greatest common lower bound with every earlier element. */
static int enum_meets(int i, const uint64_t *down)
{
    for (int j = 0; j < i; j++)
        if (extreme(down[i] & down[j], down) < 0)
            return 0;
    return 1;
}

/* Extend the naturally labeled prefix 0..i-1 by element i over each of its
 * down-closed subsets; 0 on success, -1 with an exception set.  For
 * lattices, as in the pure twin: all meets and element n - 1 the top. */
static int enum_rec(int n, int i, int lattices_only, uint64_t *up, uint64_t *down, PyObject *out)
{
    if (i == n) {
        if (lattices_only && down[n - 1] != FULL(n))
            return 0;
        uint64_t packed = 0;
        for (int k = 0; k < n; k++)
            packed |= up[k] << (8 * k);
        PyObject *x = PyLong_FromUnsignedLongLong(packed);
        int err = !x || PyList_Append(out, x);
        Py_XDECREF(x);
        return err ? -1 : 0;
    }
    uint64_t bi = (uint64_t)1 << i, m;
    for (uint64_t s = 0; s < bi; s++) {
        for (m = s; m; m &= m - 1)
            if (down[ctz64(m)] & ~s)
                break;
        if (m)
            continue;
        down[i] = s | bi;
        up[i] = bi;
        for (m = s; m; m &= m - 1)
            up[ctz64(m)] |= bi;
        int err = (!lattices_only || enum_meets(i, down))
                  && enum_rec(n, i + 1, lattices_only, up, down, out);
        for (m = s; m; m &= m - 1)
            up[ctz64(m)] &= ~bi;
        if (err)
            return -1;
    }
    down[i] = up[i] = 0;
    return 0;
}

static PyObject *enum_orders(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t up[8] = {0}, down[8] = {0};
    int n;
    if (read_n("enum_orders", args, nargs, 2, 8, &n))
        return NULL;
    int lattices_only = PyObject_IsTrue(args[1]);
    if (lattices_only < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out && enum_rec(n, 0, lattices_only, up, down, out))
        Py_CLEAR(out);
    return out;
}

/* Dense ranks of n keys: out[i] counts the distinct keys below key[i]. */
static void dense_rank(int n, const uint64_t *key, int *out)
{
    uint64_t sorted[8];
    int m = 0;
    for (int i = 0; i < n; i++) {
        int j = m;
        while (j > 0 && sorted[j - 1] > key[i])
            j--;
        if (j > 0 && sorted[j - 1] == key[i])
            continue;
        memmove(sorted + j + 1, sorted + j, (m - j) * sizeof *sorted);
        sorted[j] = key[i];
        m++;
    }
    for (int i = 0; i < n; i++) {
        int r = 0;
        while (sorted[r] != key[i])
            r++;
        out[i] = r;
    }
}

/* The colors of mask's elements in ascending order, one 4-bit digit each
 * (color + 1), most significant first.  Keys compare these words only for
 * elements of equal color, which have equally many elements below and above
 * (the first colors rank those counts), so the words compare like tuples. */
static uint64_t color_digits(uint64_t mask, const int *col)
{
    int count[8] = {0};
    uint64_t word = 0;
    for (; mask; mask &= mask - 1)
        count[col[ctz64(mask)]]++;
    for (int c = 0; c < 8; c++)
        for (int k = 0; k < count[c]; k++)
            word = word << 4 | (uint64_t)(c + 1);
    return word;
}

/* Refined colors, as the pure twin's _color_classes: start from the rank of
 * (|strict down|, |strict up|), then rank (color, sorted colors below,
 * sorted colors above) until the colors stop changing. */
static void color_refine(int n, const uint64_t *sd, const uint64_t *su, int *col)
{
    uint64_t key[8];
    int next[8];
    for (int i = 0; i < n; i++)
        key[i] = (uint64_t)popcount64(sd[i]) << 4 | popcount64(su[i]);
    dense_rank(n, key, col);
    for (;;) {
        for (int i = 0; i < n; i++)
            key[i] = (uint64_t)col[i] << 56 | color_digits(sd[i], col) << 28
                     | color_digits(su[i], col);
        dense_rank(n, key, next);
        if (!memcmp(next, col, n * sizeof *col))
            return;
        memcpy(col, next, n * sizeof *col);
    }
}

struct canon {
    int n, pos[8];
    uint64_t up[8], best;
    unsigned allowed[8]; /* elements of the color class placed at each position */
};

/* Place an element of its class at position p, in every way; at the end,
 * keep the least relabeled packed word. */
static void canon_place(struct canon *s, int p, unsigned used)
{
    if (p == s->n) {
        uint64_t packed = 0;
        for (int x = 0; x < s->n; x++) {
            uint64_t row = 0;
            for (uint64_t m = s->up[x]; m; m &= m - 1)
                row |= (uint64_t)1 << s->pos[ctz64(m)];
            packed |= row << 8 * s->pos[x];
        }
        if (packed < s->best)
            s->best = packed;
        return;
    }
    for (unsigned m = s->allowed[p] & ~used; m; m &= m - 1) {
        int x = ctz64(m);
        s->pos[x] = p;
        canon_place(s, p + 1, used | 1u << x);
    }
}

static uint64_t canonical_packed(int n, uint64_t packed)
{
    struct canon s = {.n = n, .best = ~(uint64_t)0};
    uint64_t sd[8] = {0}, su[8];
    int col[8];
    for (int i = 0; i < n; i++) {
        s.up[i] = packed >> 8 * i & FULL(n);
        su[i] = s.up[i] & ~((uint64_t)1 << i);
        for (uint64_t m = su[i]; m; m &= m - 1)
            sd[ctz64(m)] |= (uint64_t)1 << i;
    }
    color_refine(n, sd, su, col);
    /* classes in color order, each over a block of consecutive positions */
    for (int c = 0, p = 0; p < n; c++) {
        unsigned cls = 0;
        for (int i = 0; i < n; i++)
            if (col[i] == c)
                cls |= 1u << i;
        for (int k = popcount64(cls); k > 0; k--)
            s.allowed[p++] = cls;
    }
    canon_place(&s, 0, 0);
    return s.best;
}

static PyObject *canonical_keys(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    if (read_n("canonical_keys", args, nargs, 2, 8, &n))
        return NULL;
    uint64_t carrier = 0;
    for (int i = 0; i < n; i++)
        carrier |= FULL(n) << 8 * i;
    PyObject *fast = PySequence_Fast(args[1], "orders must be a sequence");
    if (!fast)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast);
    PyObject *out = PyList_New(count);
    for (Py_ssize_t k = 0; out && k < count; k++) {
        PyObject *key = NULL;
        uint64_t packed;
        if (read_word(PySequence_Fast_GET_ITEM(fast, k), carrier, &packed))
            key = PyLong_FromUnsignedLongLong(canonical_packed(n, packed));
        else if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError,
                         "expected packed orders within the %d-element carrier", n);
        if (!key)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, k, key);
    }
    Py_DECREF(fast);
    return out;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(closure, "closure(n, up)\n--\n\nReflexive-transitive closure of an up-mask adjacency."),
    KERNEL(poset_index, "poset_index(n, up, closed)\n--\n\n"
           "(down, topo, top, bottom, covers) of an order's up-masks, or its first\n"
           "fault (kind, i, j); see the pure twin."),
    KERNEL(order_tables, "order_tables(n, up, down)\n--\n\n"
           "(lattice, (star_rows, star_total), (rel_rows, rel_total), (us, uid, low, lu)):\n"
           "every pairwise table of an order in one call; the ordalg._kernels\n"
           "docstring states the contract."),
    KERNEL(rrl_scan, "rrl_scan(n, up, top, join, mult, imp)\n--\n\n"
           "Axiom scan for a residuation candidate; returns a bitmask of failures.\n\n"
           "bit 0: commutative groupoid with unit, bit 1: monotone multiplication,\n"
           "bit 2: adjointness forward, bit 3: adjointness backward."),
    KERNEL(divisibility_scan, "divisibility_scan(n, join, mult, imp)\n--\n\n"
           "True when (x v y) * (x -> y) = y for every pair."),
    {"law_plan", law_plan, METH_O, "law_plan(compiled)\n--\n\n"
     "The plan of a suite compiled by _common.law_compile, as a capsule."},
    KERNEL(law_scan, "law_scan(n, up, down, tables, plan)\n--\n\n"
           "Each program's least failing tuple, or None, in topological order.\n\n"
           "Same contract as the pure twin; the programs of each arity run as one loop\n"
           "nest, each op over the innermost variables' whole rows."),
    KERNEL(congruence_scan, "congruence_scan(n, tables, one)\n--\n\n"
           "(labels, permutable, distributive, regular): the labels of every principal\n"
           "congruence and the first witness of each criterion, or None; see the pure twin."),
    KERNEL(enum_orders, "enum_orders(n, lattices_only)\n--\n\n"
           "Packed order matrices of all naturally labeled posets on n points.\n\n"
           "Same search as the pure twin; one uint64 per poset, row i in bits 8i..8i+n."),
    KERNEL(canonical_keys, "canonical_keys(n, orders)\n--\n\n"
           "Canonical packed key of each packed order, in input order.\n\n"
           "Orders use enum_orders' format.  The key is the least packed word over\n"
           "the relabelings that keep the pure twin's refined color classes in place,\n"
           "so isomorphic orders share a key; the same key bit for bit as the twin."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "_core_c", .m_size = 0, .m_methods = methods,
    .m_doc = "Compiled kernels over uint64 masks; contract-identical to the pure twin.",
};

PyMODINIT_FUNC PyInit__core_c(void) { return PyModule_Create(&module); }
