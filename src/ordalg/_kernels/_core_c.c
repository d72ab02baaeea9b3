/* Compiled kernels over uint64 masks; contract-identical to the pure twin
 * _core_py.py, for carriers of 1 to 64 elements.
 *
 * Bit j of up[i] set means element i lies below element j (reflexive);
 * down is the transpose.  Tables are flat row-major sequences of length
 * n*n.  Every kernel raises ValueError when n lies outside the sizes its
 * fixed buffers hold, a mask has bits outside the carrier, or a table
 * entry is not an element index.  Build: python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
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

/* Read the first n*n entries of a flat table; each must be an index in 0..n-1. */
static int read_table(PyObject *seq, int n, int *out)
{
    PyObject *fast = PySequence_Fast(seq, "table must be a sequence");
    if (!fast)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) >= n * n;
    for (int i = 0; ok && i < n * n; i++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(fast, i), &overflow);
        ok = v >= 0 && v < n;
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    if (!ok && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "expected %d table entries in 0..%d", n * n, n - 1);
    return ok ? 0 : -1;
}

static PyObject *mask_list(const uint64_t *v, Py_ssize_t count)
{
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out && i < count; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(v[i]);
        if (!x)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *int_list(const int *v, Py_ssize_t count)
{
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out && i < count; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (!x)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
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
    return mask_list(buf, n);
}

static PyObject *lattice_tables(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64], db[64];
    int join[64 * 64], meet[64 * 64], n;
    if (read_n("lattice_tables", args, nargs, 3, 64, &n) || read_masks(args[1], n, ub)
        || read_masks(args[2], n, db))
        return NULL;
    for (int i = 0; i < n; i++)
        for (int j = i; j < n; j++) {
            int m = extreme(ub[i] & ub[j], ub);
            if (m < 0)
                Py_RETURN_NONE;
            join[i * n + j] = join[j * n + i] = m;
            m = extreme(db[i] & db[j], db);
            if (m < 0)
                Py_RETURN_NONE;
            meet[i * n + j] = meet[j * n + i] = m;
        }
    /* "N" takes the new lists' references, also when a conversion fails */
    return Py_BuildValue("(NN)", int_list(join, n * n), int_list(meet, n * n));
}

static PyObject *poset_star_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64], db[64], lu[64 * 64];
    int star[64 * 64], n;
    if (read_n("poset_star_table", args, nargs, 3, 64, &n) || read_masks(args[1], n, ub)
        || read_masks(args[2], n, db))
        return NULL;
    uint64_t full = FULL(n);
    /* lu[x][y]: common lower bounds of the common upper bounds of x and y */
    for (int x = 0; x < n; x++)
        for (int y = x; y < n; y++) {
            uint64_t acc = full;
            for (uint64_t m = ub[x] & ub[y]; m; m &= m - 1)
                acc &= db[ctz64(m)];
            lu[x * n + y] = lu[y * n + x] = acc;
        }
    /* Same construction as the pure twin: the candidate is the minimum of
     * the intersection of the U(c, b) over qualifying c, then verified.
     * lu is symmetric, so lu[c][b] is read along row b. */
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++) {
            uint64_t lu_ab = lu[a * n + b], lb = db[b], t = full;
            for (int c = 0; c < n; c++)
                if ((lu_ab & lu[b * n + c]) == lb)
                    t &= ub[c] & ub[b];
            int d = extreme(t, ub);
            star[a * n + b] = (d >= 0 && (db[d] >> b) & 1 && (lu_ab & db[d]) == lb) ? d : -1;
        }
    return int_list(star, n * n);
}

static PyObject *rrl_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t ub[64];
    int jt[64 * 64], mt[64 * 64], it[64 * 64], n, bits = 0;
    if (read_n("rrl_scan", args, nargs, 6, 64, &n) || read_masks(args[1], n, ub))
        return NULL;
    long top = PyLong_AsLong(args[2]);
    if ((top < 0 || top >= n) && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "top must lie in 0..%d", n - 1);
    if (PyErr_Occurred() || read_table(args[3], n, jt) || read_table(args[4], n, mt)
        || read_table(args[5], n, it))
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

static PyObject *divisibility_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int jt[64 * 64], mt[64 * 64], it[64 * 64], n;
    if (read_n("divisibility_scan", args, nargs, 4, 64, &n) || read_table(args[1], n, jt)
        || read_table(args[2], n, mt) || read_table(args[3], n, it))
        return NULL;
    for (int x = 0; x < n; x++)
        for (int y = 0; y < n; y++)
            if (mt[jt[x * n + y] * n + it[x * n + y]] != y)
                Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

/* Every new pair keeps a glb, and every pair now under i still has a
 * unique minimal common upper bound. */
static int enum_prune(int i, const uint64_t *up, const uint64_t *down)
{
    for (int j = 0; j < i; j++)
        if (extreme(down[i] & down[j], down) < 0)
            return 0;
    for (uint64_t m1 = down[i] & ~((uint64_t)1 << i); m1; m1 &= m1 - 1) {
        int j = ctz64(m1);
        for (uint64_t m2 = m1 & (m1 - 1); m2; m2 &= m2 - 1)
            if (extreme(up[j] & up[ctz64(m2)], up) < 0)
                return 0;
    }
    return 1;
}

static int enum_complete(int n, const uint64_t *up, const uint64_t *down)
{
    for (int j = 0; j < n; j++)
        for (int k = j + 1; k < n; k++)
            if (extreme(up[j] & up[k], up) < 0 || extreme(down[j] & down[k], down) < 0)
                return 0;
    return 1;
}

/* Extend the naturally labeled prefix 0..i-1 by element i over each of its
 * down-closed subsets; 0 on success, -1 with an exception set. */
static int enum_rec(int n, int i, int lattices_only, uint64_t *up, uint64_t *down, PyObject *out)
{
    if (i == n) {
        if (lattices_only && !enum_complete(n, up, down))
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
        int err = (!lattices_only || enum_prune(i, up, down))
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
    KERNEL(lattice_tables, "lattice_tables(n, up, down)\n--\n\n"
           "Flat (join, meet) tables, or None if some pair lacks a lub or glb."),
    KERNEL(poset_star_table, "poset_star_table(n, up, down)\n--\n\n"
           "Sectional pseudocomplement table for a poset; -1 marks undefined cells."),
    KERNEL(rrl_scan, "rrl_scan(n, up, top, join, mult, imp)\n--\n\n"
           "Axiom scan for a residuation candidate; returns a bitmask of failures.\n\n"
           "bit 0: commutative groupoid with unit, bit 1: monotone multiplication,\n"
           "bit 2: adjointness forward, bit 3: adjointness backward."),
    KERNEL(divisibility_scan, "divisibility_scan(n, join, mult, imp)\n--\n\n"
           "True when (x v y) * (x -> y) = y for every pair."),
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
    PyModuleDef_HEAD_INIT, "_core_c",
    "Compiled kernels over uint64 masks; contract-identical to the pure twin.", 0, methods,
};

PyMODINIT_FUNC PyInit__core_c(void) { return PyModule_Create(&module); }
