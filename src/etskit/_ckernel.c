/* Compiled canonical-labeling kernel, the fast twin of _kernel.py, whose
 * docstring states the contract.  Same rules, so the same form for every
 * graph: refinement in full simultaneous passes (every vertex keyed by its
 * neighbour counts in every cell; each cell stably sorted by key, split
 * wherever the key changes), branching on the first non-singleton cell
 * (once when its members are interchangeable), and the smallest bitmap of
 * the leaves as the form.  It refuses the same calls with the same
 * exceptions.  tests/test_kernel_parity.py compares the two kernels.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

#define NODE_CAP 16

#if defined(__GNUC__) || defined(__clang__)
static inline int popcount(unsigned int x) { return __builtin_popcount(x); }
#else
static inline int popcount(unsigned int x)
{
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
}
#endif

typedef struct {
    int n;
    int nbytes; /* length of the form: one length byte, then the bitmap */
    unsigned int adj[NODE_CAP];
    unsigned char best[1 + (NODE_CAP * (NODE_CAP - 1) / 2 + 7) / 8]; /* the form */
} State;

/* Encode the discrete partition verts as n, then the row-major
 * upper-triangle bitmap, and keep it if it is smaller than the best. */
static void leaf(State *st, const int *verts)
{
    unsigned char buf[sizeof st->best] = {(unsigned char)st->n};
    int i, j, k = 8; /* bit k of the form: the bitmap follows the length byte */
    for (i = 0; i < st->n; i++) {
        unsigned int ai = st->adj[verts[i]];
        for (j = i + 1; j < st->n; j++, k++)
            if ((ai >> verts[j]) & 1)
                buf[k >> 3] |= 1 << (7 - (k & 7));
    }
    if (memcmp(buf, st->best, st->nbytes) < 0)
        memcpy(st->best, buf, st->nbytes);
}

/* cell_end[p] is 1 when position p closes a cell of the ordered partition.
 * A vertex's key packs its neighbour count in each cell, 4 bits per cell,
 * the first cell highest: a vertex has at most 15 neighbours and a partition
 * at most 16 cells, so keys order vertices exactly as the count rows do. */
static void refine(const State *st, int *verts, unsigned char *cell_end)
{
    int n = st->n;
    unsigned int cellmask[NODE_CAP];
    unsigned long long key[NODE_CAP];
    int changed = 1;
    while (changed) {
        int ncells = 0, start = 0, i, p, q, v;
        for (p = 0; p < n; p++) {
            if (!cell_end[p])
                continue;
            cellmask[ncells] = 0;
            for (q = start; q <= p; q++)
                cellmask[ncells] |= 1u << verts[q];
            ncells++;
            start = p + 1;
        }
        for (v = 0; v < n; v++)
            for (key[v] = 0, q = 0; q < ncells; q++)
                key[v] = key[v] << 4 | popcount(st->adj[v] & cellmask[q]);
        changed = 0;
        start = 0;
        for (p = 0; p < n; p++) {
            if (!cell_end[p])
                continue;
            /* stable insertion sort of verts[start..p] by key */
            for (i = start + 1; i <= p; i++) {
                int w = verts[i];
                for (q = i - 1; q >= start && key[verts[q]] > key[w]; q--)
                    verts[q + 1] = verts[q];
                verts[q + 1] = w;
            }
            for (i = start; i < p; i++)
                if (key[verts[i]] != key[verts[i + 1]]) {
                    cell_end[i] = 1;
                    changed = 1;
                }
            start = p + 1;
        }
    }
}

/* The members of cell verts[lo..hi] can be swapped by an automorphism:
 * equal rows outside the cell, and the cell induces nothing, everything, a
 * perfect matching, or (with more than 2 members) the complement of one. */
static int interchangeable(const State *st, const int *verts, int lo, int hi)
{
    unsigned int cmask = 0, outside;
    int p, size = hi - lo + 1;
    int empty = 1, full = 1, match = 1, comatch = size > 2;
    for (p = lo; p <= hi; p++)
        cmask |= 1u << verts[p];
    outside = st->adj[verts[lo]] & ~cmask;
    for (p = lo; p <= hi; p++) {
        int deg = popcount(st->adj[verts[p]] & cmask);
        if ((st->adj[verts[p]] & ~cmask) != outside)
            return 0;
        empty &= deg == 0;
        full &= deg == size - 1;
        match &= deg == 1;
        comatch &= deg == size - 2;
    }
    return empty || full || match || comatch;
}

static void search(State *st, int *verts, unsigned char *cell_end)
{
    int n = st->n, lo = -1, hi = 0, start = 0, once, p;
    refine(st, verts, cell_end);
    for (p = 0; p < n; p++) {
        if (!cell_end[p])
            continue;
        if (p > start) {
            lo = start;
            hi = p;
            break;
        }
        start = p + 1;
    }
    if (lo < 0) {
        leaf(st, verts);
        return;
    }
    once = interchangeable(st, verts, lo, hi);
    for (p = lo; p <= hi; p++) {
        /* child: verts[p] individualised in front of the rest of its cell,
         * which keep their relative order */
        int nverts[NODE_CAP], i, q = lo + 1;
        unsigned char nends[NODE_CAP];
        memcpy(nverts, verts, n * sizeof *verts);
        memcpy(nends, cell_end, n);
        nverts[lo] = verts[p];
        for (i = lo; i <= hi; i++)
            if (i != p)
                nverts[q++] = verts[i];
        nends[lo] = 1;
        search(st, nverts, nends);
        if (once)
            break;
    }
}

static PyObject *canonical_bits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", NULL};
    PyObject *nobj, *adj;
    State st;
    int verts[NODE_CAP], overflow, i;
    unsigned char cell_end[NODE_CAP] = {0};
    long n;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:canonical_bits", kwlist, &nobj, &adj))
        return NULL;
    n = PyLong_AsLongAndOverflow(nobj, &overflow);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (overflow > 0 || n > NODE_CAP)
        return PyErr_Format(PyExc_ValueError, "node count %S exceeds kernel cap %d", nobj, NODE_CAP);
    if (overflow < 0 || n < 0)
        return PyErr_Format(PyExc_ValueError, "node count %S is negative", nobj);
    if (n == 0)
        return PyBytes_FromStringAndSize("\0", 1);
    st.n = (int)n;
    st.nbytes = 1 + (st.n * (st.n - 1) / 2 + 7) / 8;
    memset(st.best, 0xff, sizeof st.best); /* above every form: the first leaf replaces it */
    for (i = 0; i < st.n; i++) {
        PyObject *mask = PySequence_GetItem(adj, i);
        unsigned long value;
        if (mask == NULL)
            return NULL;
        if (!PyLong_Check(mask)) {
            PyErr_Format(PyExc_TypeError, "adjacency mask must be int, not %.200s", Py_TYPE(mask)->tp_name);
            Py_DECREF(mask);
            return NULL;
        }
        value = PyLong_AsUnsignedLong(mask);
        Py_DECREF(mask);
        if (value == (unsigned long)-1 && PyErr_Occurred())
            return NULL;
        if (value > UINT_MAX)
            return PyErr_Format(PyExc_OverflowError, "adjacency mask %lu does not fit in 32 bits", value);
        /* a self bit would make every search branch: n! leaves on K_n */
        if (value >> st.n || (value >> i) & 1)
            return PyErr_Format(PyExc_ValueError, "adjacency mask %lu of node %d is not a set of other nodes",
                                value, i);
        st.adj[i] = (unsigned int)value;
        verts[i] = i;
    }
    cell_end[st.n - 1] = 1;
    search(&st, verts, cell_end);
    return PyBytes_FromStringAndSize((const char *)st.best, st.nbytes);
}

static PyMethodDef methods[] = {
    {"canonical_bits", (PyCFunction)(void (*)(void))canonical_bits, METH_VARARGS | METH_KEYWORDS,
     "canonical_bits(n, adj) -> form; see the pure kernel for the contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "etskit._ckernel", "Compiled canonical-labeling kernel.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "c") < 0 || PyModule_AddIntConstant(m, "NODE_CAP", NODE_CAP) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
