/* Uniform-cost search kernel for single-failure recovery schemes.
 *
 * This is a line-for-line mirror of the pure-Python engine in search.py
 * (integer-key cost models, dominance disabled): same closed-set
 * semantics, same push order, same early-goal cutoff.  Heap entries are
 * (key << 32 | state id) packed into one uint64, and state ids are unique,
 * so the pop order is a total order — any correct binary heap reproduces
 * the Python engine's expansion sequence and therefore returns the
 * byte-identical scheme.
 *
 * Masks are fixed-width 512-bit vectors (W=8 words); the Python wrapper
 * falls back to the pure engine for anything wider, for weighted/opaque
 * cost keys, and when subset-dominance pruning is requested.
 *
 * Compiled on demand by repro.recovery.ckernel via the system C compiler;
 * no build step, no third-party dependency.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define W 8 /* mask words: 8 * 64 = 512 element bits */

typedef struct {
    uint64_t expanded;
    uint64_t pushed;
    uint64_t pruned_closed;
    uint64_t peak_frontier;
    int32_t status; /* 0 ok, 1 expansion budget exhausted */
} ucs_stats;

/* ------------------------------------------------------------------ */
/* state store (structure of arrays)                                   */
/* ------------------------------------------------------------------ */
typedef struct {
    uint64_t *mask;   /* cap * W words */
    uint32_t *parent;
    int32_t *opt;     /* option index within the slot */
    uint16_t *slot;
    size_t len, cap;
} states_t;

static int states_reserve(states_t *s, size_t need)
{
    void *p;
    size_t ncap;
    if (need <= s->cap)
        return 0;
    ncap = s->cap ? s->cap : 1024;
    while (ncap < need)
        ncap *= 2;
    p = realloc(s->mask, ncap * W * sizeof(uint64_t));
    if (!p) return -1;
    s->mask = p;
    p = realloc(s->parent, ncap * sizeof(uint32_t));
    if (!p) return -1;
    s->parent = p;
    p = realloc(s->opt, ncap * sizeof(int32_t));
    if (!p) return -1;
    s->opt = p;
    p = realloc(s->slot, ncap * sizeof(uint16_t));
    if (!p) return -1;
    s->slot = p;
    s->cap = ncap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* binary min-heap of packed (key << 32 | sid)                         */
/* ------------------------------------------------------------------ */
typedef struct {
    uint64_t *a;
    size_t len, cap;
} heap_t;

static int heap_push(heap_t *h, uint64_t v)
{
    size_t i;
    if (h->len == h->cap) {
        size_t nc = h->cap ? h->cap * 2 : 1024;
        void *p = realloc(h->a, nc * sizeof(uint64_t));
        if (!p)
            return -1;
        h->a = p;
        h->cap = nc;
    }
    i = h->len++;
    while (i) {
        size_t par = (i - 1) / 2;
        if (h->a[par] <= v)
            break;
        h->a[i] = h->a[par];
        i = par;
    }
    h->a[i] = v;
    return 0;
}

static uint64_t heap_pop(heap_t *h)
{
    uint64_t top = h->a[0];
    uint64_t v = h->a[--h->len];
    size_t i = 0, n = h->len;
    for (;;) {
        size_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && h->a[c + 1] < h->a[c])
            c++;
        if (h->a[c] >= v)
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    if (n)
        h->a[i] = v;
    return top;
}

/* ------------------------------------------------------------------ */
/* closed set: open-addressing table keyed by (slot, mask)             */
/* ------------------------------------------------------------------ */
typedef struct {
    uint64_t h;    /* 0 = empty */
    uint32_t ref1; /* state id whose mask words back this entry, +1 */
    uint32_t key;  /* best key pushed so far for this (slot, mask) */
} centry;

typedef struct {
    centry *e;
    size_t cap, n;
} table_t;

static uint64_t mask_hash(const uint64_t *m, uint32_t slot)
{
    uint64_t h = 1469598103934665603ULL ^ (slot * 0x9E3779B97F4A7C15ULL);
    int i;
    for (i = 0; i < W; i++) {
        h ^= m[i];
        h *= 1099511628211ULL;
    }
    h ^= h >> 29;
    return h ? h : 1;
}

static centry *table_probe(table_t *t, uint64_t h, const uint64_t *m,
                           uint32_t slot, const states_t *st)
{
    size_t mask = t->cap - 1;
    size_t i = h & mask;
    for (;;) {
        centry *e = &t->e[i];
        if (!e->h)
            return e; /* first empty slot: insertion point */
        if (e->h == h) {
            uint32_t ref = e->ref1 - 1;
            if (st->slot[ref] == slot &&
                !memcmp(&st->mask[(size_t)ref * W], m, W * sizeof(uint64_t)))
                return e;
        }
        i = (i + 1) & mask;
    }
}

static int table_grow(table_t *t)
{
    size_t ncap = t->cap * 2;
    centry *ne = calloc(ncap, sizeof(centry));
    size_t i;
    if (!ne)
        return -1;
    for (i = 0; i < t->cap; i++) {
        centry *e = &t->e[i];
        size_t j;
        if (!e->h)
            continue;
        j = e->h & (ncap - 1);
        while (ne[j].h)
            j = (j + 1) & (ncap - 1);
        ne[j] = *e;
    }
    free(t->e);
    t->e = ne;
    t->cap = ncap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* cost keys (packed lexicographic; order matches the Python models)   */
/* ------------------------------------------------------------------ */
#define KEY_BITS 10 /* coordinates <= 512 elements < 1024 */

static uint32_t key_of(const uint64_t *m, int n_disks, int k, int kind)
{
    uint32_t total = 0, mx = 0;
    int i, d;
    for (i = 0; i < W; i++)
        total += (uint32_t)__builtin_popcountll(m[i]);
    if (kind == 0)
        return total; /* Khan: total reads only */
    for (d = 0; d < n_disks; d++) {
        int start = d * k;
        int wi = start >> 6, sh = start & 63;
        uint64_t lo = m[wi] >> sh;
        uint32_t c;
        if (sh && wi + 1 < W)
            lo |= m[wi + 1] << (64 - sh);
        if (k < 64)
            lo &= ((1ULL << k) - 1);
        c = (uint32_t)__builtin_popcountll(lo);
        if (c > mx)
            mx = c;
    }
    if (kind == 1)
        return (total << KEY_BITS) | mx; /* C: (total, max_load) */
    return (mx << KEY_BITS) | total;     /* U: (max_load, total) */
}

/* ------------------------------------------------------------------ */
/* the search                                                          */
/* ------------------------------------------------------------------ */
int64_t ucs_search(int32_t n_slots,
                   const int64_t *opt_off,    /* n_slots+1 row offsets */
                   const uint64_t *opt_masks, /* option read masks, W words each */
                   int32_t n_disks, int32_t k_rows, int32_t kind,
                   uint64_t max_expansions, /* 0 = unlimited */
                   int32_t *out_chain,      /* option index per slot */
                   uint64_t *out_mask,      /* goal read mask, W words */
                   ucs_stats *st)
{
    states_t S;
    heap_t H;
    table_t T;
    int64_t ret = -1, goal = -1;
    uint64_t expanded = 0, pushed = 0, pruned_closed = 0, peak = 1;
    uint32_t best_goal_key = 0, best_goal_sid = 0;
    int have_goal = 0;
    uint64_t cur[W], newm[W];

    memset(st, 0, sizeof(*st));
    memset(&S, 0, sizeof(S));
    memset(&H, 0, sizeof(H));
    memset(&T, 0, sizeof(T));
    T.cap = 1 << 16;
    T.e = calloc(T.cap, sizeof(centry));
    if (!T.e)
        goto out;
    if (states_reserve(&S, 1))
        goto out;
    memset(S.mask, 0, W * sizeof(uint64_t));
    S.parent[0] = 0;
    S.opt[0] = -1;
    S.slot[0] = 0;
    S.len = 1;
    if (heap_push(&H, 0)) /* key 0, sid 0 */
        goto out;

    while (H.len) {
        uint64_t top;
        uint32_t key, sid, slot, new_slot;
        int is_goal_slot;
        int64_t oi;

        if (have_goal && best_goal_key <= (uint32_t)(H.a[0] >> 32)) {
            /* early-goal cutoff (see search.py for the argument) */
            goal = best_goal_sid;
            break;
        }
        top = heap_pop(&H);
        key = (uint32_t)(top >> 32);
        sid = (uint32_t)top;
        slot = S.slot[sid];
        memcpy(cur, &S.mask[(size_t)sid * W], W * sizeof(uint64_t));
        if (slot > 0) { /* the root is never entered in the closed set */
            centry *e = table_probe(&T, mask_hash(cur, slot), cur, slot, &S);
            if (e->h && e->key < key)
                continue; /* stale heap entry */
        }
        if ((int32_t)slot == n_slots) {
            goal = sid;
            break;
        }
        expanded++;
        if (max_expansions && expanded > max_expansions) {
            st->status = 1;
            break;
        }
        new_slot = slot + 1;
        is_goal_slot = (int32_t)new_slot == n_slots;
        for (oi = opt_off[slot]; oi < opt_off[slot + 1]; oi++) {
            const uint64_t *rm = &opt_masks[(size_t)oi * W];
            uint64_t h;
            uint32_t new_key, nsid;
            centry *e;
            int w2, changed = 0;
            for (w2 = 0; w2 < W; w2++) {
                uint64_t u = cur[w2] | rm[w2];
                if (u != cur[w2])
                    changed = 1;
                newm[w2] = u;
            }
            new_key = changed ? key_of(newm, n_disks, k_rows, kind) : key;
            h = mask_hash(newm, new_slot);
            e = table_probe(&T, h, newm, new_slot, &S);
            if (e->h && e->key <= new_key) {
                pruned_closed++;
                continue;
            }
            if (states_reserve(&S, S.len + 1))
                goto out;
            nsid = (uint32_t)S.len;
            memcpy(&S.mask[(size_t)nsid * W], newm, W * sizeof(uint64_t));
            S.parent[nsid] = sid;
            S.opt[nsid] = (int32_t)(oi - opt_off[slot]);
            S.slot[nsid] = (uint16_t)new_slot;
            S.len++;
            if (e->h) {
                e->key = new_key; /* better key for a seen (slot, mask) */
            } else {
                e->h = h;
                e->ref1 = nsid + 1;
                e->key = new_key;
                if (++T.n * 10 > T.cap * 7 && table_grow(&T))
                    goto out;
            }
            if (heap_push(&H, ((uint64_t)new_key << 32) | nsid))
                goto out;
            if (is_goal_slot && (!have_goal || new_key < best_goal_key)) {
                have_goal = 1;
                best_goal_key = new_key;
                best_goal_sid = nsid;
            }
            pushed++;
        }
        if (H.len > peak)
            peak = H.len;
    }

    st->expanded = expanded;
    st->pushed = pushed;
    st->pruned_closed = pruned_closed;
    st->peak_frontier = peak;
    if (goal >= 0) {
        int64_t sid = goal;
        memcpy(out_mask, &S.mask[(size_t)goal * W], W * sizeof(uint64_t));
        while (sid != 0) {
            out_chain[S.slot[sid] - 1] = S.opt[sid];
            sid = S.parent[sid];
        }
        ret = 0;
    } else if (st->status == 1) {
        ret = 0; /* caller falls back to the Python engine */
    }

out:
    free(S.mask);
    free(S.parent);
    free(S.opt);
    free(S.slot);
    free(H.a);
    free(T.e);
    return ret;
}

/* ------------------------------------------------------------------ */
/* batched wide XOR: the serving/rebuild reconstruction hot path       */
/* ------------------------------------------------------------------ */

/* dst ^= src over n bytes; word-at-a-time via memcpy so the compiler is
 * free to vectorize without any alignment assumption */
static void xor_into(uint8_t *restrict dst, const uint8_t *restrict src,
                     int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t a, b;
        memcpy(&a, dst + i, 8);
        memcpy(&b, src + i, 8);
        a ^= b;
        memcpy(dst + i, &a, 8);
    }
    for (; i < n; i++)
        dst[i] ^= src[i];
}

/* Reconstruct every failed element of every stripe in one call.
 *
 * Mirrors BatchReconstructor.recover_batch_into exactly.  The input is
 * addressed as columns: cols[c] is the base of column c, a (*, k_rows,
 * esz) block whose rows are esz bytes apart, and every column shares one
 * stripe stride.  Element e of a stripe is row e % k_rows of column
 * e / k_rows, so a contiguous (*, n_elements, esz) batch is a single
 * column with k_rows = n_elements, while per-logical-disk views of a disk
 * image (one column per disk, k_rows rows each) are read in place.
 * `out` is the (n_stripes, n_slots, esz) output block, slot i the i-th
 * failed element of the compiled plan, slots esz bytes apart and output
 * rows out_stride bytes apart.  Output row s is rebuilt from input
 * stripe sid[s] when `sid` is given (a gather straight out of a whole
 * store, no staging copy), else from input stripe s; the Python wrapper
 * bounds-checks sid.  The flattened plan lives in (src_off, src_ids):
 * slot i's sources are src_ids[src_off[i] .. src_off[i+1]); an id >= 0
 * names a surviving element of the stripe, an id < 0 names the earlier
 * output slot -(id + 1) (Greenan-style iteration, already in dependency
 * order).  XOR is commutative, so the result is byte-identical to the
 * numpy fold regardless of source order.
 *
 * Stripe-major loop order keeps the working set to one stripe (its
 * sources plus its output block), so big chunks stream through cache
 * instead of thrashing it.  Returns 0, or -1 when the per-call source
 * table cannot be allocated (the caller then takes the numpy path);
 * shape validation happens in the Python wrapper.
 */
int64_t xor_batch(const uint8_t *const *cols, int64_t k_rows,
                  int64_t stripe_stride, const int64_t *sid,
                  int64_t n_stripes, int64_t esz,
                  uint8_t *out, int64_t out_stride, int64_t n_slots,
                  const int64_t *src_off, const int32_t *src_ids)
{
    int64_t s, i, j, n_src = src_off[n_slots];
    /* each surviving source's address in stripe 0, resolved once */
    const uint8_t **base = malloc((size_t)(n_src ? n_src : 1) * sizeof *base);
    if (!base)
        return -1;
    for (j = 0; j < n_src; j++)
        if (src_ids[j] >= 0)
            base[j] = cols[src_ids[j] / k_rows] + (src_ids[j] % k_rows) * esz;
    for (s = 0; s < n_stripes; s++) {
        int64_t in_off = (sid ? sid[s] : s) * stripe_stride;
        uint8_t *out_base = out + s * out_stride;
        for (i = 0; i < n_slots; i++) {
            uint8_t *dst = out_base + i * esz;
            int64_t a = src_off[i], b = src_off[i + 1];
            if (a == b) {
                memset(dst, 0, (size_t)esz);
                continue;
            }
            for (j = a; j < b; j++) {
                const uint8_t *src = src_ids[j] >= 0
                                         ? base[j] + in_off
                                         : out_base + (int64_t)(-src_ids[j] - 1) * esz;
                if (j == a)
                    memcpy(dst, src, (size_t)esz);
                else
                    xor_into(dst, src, esz);
            }
        }
    }
    free(base);
    return 0;
}
