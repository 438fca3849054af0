/* Uniform-cost search kernel for single-failure recovery schemes.
 *
 * This is a line-for-line mirror of the pure-Python engine in search.py
 * (integer-key cost models): same closed set, same
 * incumbent bound, same push order, same early-goal cutoff, and therefore
 * the same expansion sequence and the byte-identical scheme.
 *
 * The frontier is the paper's rec_list: one FIFO bucket per cost key.
 * Keys are dense indices order-isomorphic to the Python key tuples, and a
 * successor's key is never below its parent's (costs are monotone under
 * set union), so popping the head of the first non-empty bucket at or
 * after a cursor that only moves forward pops states in (key, push order)
 * order — the order of the Python engine's (key, state id) heap.
 *
 * Masks are stored at the geometry's own width, ceil(n_elements / 64)
 * words.  The Python wrapper caps geometries at 512 elements (MAX_W
 * words) and falls back to the pure engine for anything wider and for
 * weighted and topology cost keys.
 *
 * Compiled on demand by repro.recovery.ckernel via the system C compiler;
 * no build step, no third-party dependency.
 */

#ifdef __linux__
#define _GNU_SOURCE /* mremap */
#endif
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define MAX_W 8 /* mask words: 8 * 64 = 512 element bits */

/* ------------------------------------------------------------------ */
/* big blocks: private mappings, returned to the system on free        */
/* ------------------------------------------------------------------ */
/* The planner runs searches on worker threads.  There glibc serves
 * malloc from per-thread arenas, which keep what a large search frees,
 * so every worker would pin its largest search's store for good.  Blocks
 * of BIG_BLOCK bytes or more therefore live in anonymous mappings: grown
 * with mremap (elsewhere: map, copy, unmap) and unmapped by blk_free.
 * Smaller blocks stay on malloc, where reuse is cheap.  Every block
 * starts with a header recording its length and kind. */
#define BIG_BLOCK ((size_t)1 << 20)

typedef struct {
    size_t len;    /* bytes, header included */
    size_t mapped; /* nonzero: an anonymous mapping, else malloc */
} blk_hdr;

static blk_hdr *blk_map(size_t len)
{
    void *p = mmap(NULL, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

/* A block of n bytes holding the first bytes of p (which may be NULL);
 * NULL on failure, when p stays valid.  Mapped memory is zero-filled. */
static void *blk_realloc(void *p, size_t n)
{
    blk_hdr *h = p ? (blk_hdr *)p - 1 : NULL, *nh;
    size_t len = n + sizeof(blk_hdr);
    if (h && h->mapped && len <= h->len)
        return p;
    if (len < BIG_BLOCK && !(h && h->mapped)) {
        nh = realloc(h, len);
        if (!nh)
            return NULL;
        nh->mapped = 0;
    } else if (h && h->mapped) {
#ifdef __linux__
        nh = mremap(h, h->len, len, MREMAP_MAYMOVE);
        if (nh == MAP_FAILED)
            return NULL;
#else
        nh = blk_map(len);
        if (!nh)
            return NULL;
        memcpy(nh, h, h->len);
        munmap(h, h->len);
#endif
    } else {
        nh = blk_map(len);
        if (!nh)
            return NULL;
        if (h) {
            memcpy(nh + 1, h + 1, h->len - sizeof(blk_hdr));
            free(h);
        }
        nh->mapped = 1;
    }
    nh->len = len;
    return nh + 1;
}

/* n zeroed bytes */
static void *blk_calloc(size_t n)
{
    size_t len = n + sizeof(blk_hdr);
    blk_hdr *h;
    if (len >= BIG_BLOCK)
        return blk_realloc(NULL, n); /* fresh mappings are zero-filled */
    h = calloc(1, len);
    if (!h)
        return NULL;
    h->len = len;
    return h + 1;
}

static void blk_free(void *p)
{
    blk_hdr *h = p ? (blk_hdr *)p - 1 : NULL;
    if (!h)
        return;
    if (h->mapped)
        munmap(h, h->len);
    else
        free(h);
}

typedef struct {
    uint64_t expanded;
    uint64_t pushed;
    uint64_t pruned_closed;
    uint64_t pruned_bound;
    uint64_t peak_frontier;
    int32_t status; /* 0 ok, 1 expansion budget exhausted */
} ucs_stats;

/* ------------------------------------------------------------------ */
/* state store (structure of arrays)                                   */
/* ------------------------------------------------------------------ */
typedef struct {
    uint64_t *mask;   /* cap * w words */
    uint32_t *parent;
    uint32_t *next;   /* next state of the same key bucket, +1; 0 = last */
    int32_t *opt;     /* option index within the slot */
    uint16_t *slot;
    size_t len, cap, w;
} states_t;

static int states_reserve(states_t *s, size_t need)
{
    void *p;
    size_t ncap;
    if (need <= s->cap)
        return 0;
    ncap = s->cap ? s->cap * 2 : 1024;
    p = blk_realloc(s->mask, ncap * s->w * sizeof(uint64_t));
    if (!p) return -1;
    s->mask = p;
    p = blk_realloc(s->parent, ncap * sizeof(uint32_t));
    if (!p) return -1;
    s->parent = p;
    p = blk_realloc(s->next, ncap * sizeof(uint32_t));
    if (!p) return -1;
    s->next = p;
    p = blk_realloc(s->opt, ncap * sizeof(int32_t));
    if (!p) return -1;
    s->opt = p;
    p = blk_realloc(s->slot, ncap * sizeof(uint16_t));
    if (!p) return -1;
    s->slot = p;
    s->cap = ncap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* closed set: open-addressing table of the (slot, mask) pairs pushed  */
/* ------------------------------------------------------------------ */
/* Every key is a function of the mask, so a (slot, mask) is pushed at
 * most once and membership is all the table records. */
typedef struct {
    uint32_t tag;  /* high hash bits, compared before the masks */
    uint32_t ref1; /* state id holding this (slot, mask), +1; 0 = empty */
} centry;

typedef struct {
    centry *e;
    size_t cap, n;
} table_t;

static uint64_t state_hash(const uint64_t *m, size_t w, uint32_t slot)
{
    uint64_t h = (slot + 1) * 0x9E3779B97F4A7C15ULL;
    size_t i;
    for (i = 0; i < w; i++) {
        h = (h ^ m[i]) * 0xFF51AFD7ED558CCDULL;
        h ^= h >> 32;
    }
    return h;
}

/* the entry holding (slot, m), or the empty entry where it would go */
static centry *table_find(const table_t *t, uint64_t h, const uint64_t *m,
                          uint32_t slot, const states_t *st)
{
    size_t cmask = t->cap - 1, i = h & cmask;
    uint32_t tag = (uint32_t)(h >> 32);
    for (;;) {
        centry *e = &t->e[i];
        if (!e->ref1)
            return e;
        if (e->tag == tag) {
            uint32_t ref = e->ref1 - 1;
            if (st->slot[ref] == slot &&
                !memcmp(&st->mask[(size_t)ref * st->w], m,
                        st->w * sizeof(uint64_t)))
                return e;
        }
        i = (i + 1) & cmask;
    }
}

/* Double the table.  Every state but the root is in it, so the entries
 * are rebuilt from the state store in id order: sequential reads. */
static int table_grow(table_t *t, const states_t *st)
{
    size_t ncap = t->cap * 2, sid;
    centry *ne = blk_calloc(ncap * sizeof(centry));
    if (!ne)
        return -1;
    for (sid = 1; sid < st->len; sid++) {
        uint64_t h = state_hash(&st->mask[sid * st->w], st->w, st->slot[sid]);
        size_t j = h & (ncap - 1);
        while (ne[j].ref1)
            j = (j + 1) & (ncap - 1);
        ne[j].tag = (uint32_t)(h >> 32);
        ne[j].ref1 = (uint32_t)sid + 1;
    }
    blk_free(t->e);
    t->e = ne;
    t->cap = ncap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* cost keys                                                           */
/* ------------------------------------------------------------------ */
/* Bit count without a libgcc call: the kernel is built without -march
 * flags, and there __builtin_popcountll is an out-of-line table walk. */
static inline uint32_t pop64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (uint32_t)((x * 0x0101010101010101ULL) >> 56);
}

/* Number of set bits among m's bits [start, start + len), len >= 1.  The
 * word after the window's last one must be readable (the callers' masks
 * carry one spare word). */
static uint32_t window_pop(const uint64_t *m, uint32_t start, uint32_t len)
{
    const uint64_t *p = m + (start >> 6);
    uint32_t sh = start & 63, c = 0;
    /* p[1] << (64 - sh) without the undefined shift by 64 when sh == 0 */
    for (; len > 64; len -= 64, p++) /* windows wider than a word */
        c += pop64((p[0] >> sh) | ((p[1] << 1) << (63 - sh)));
    return c + pop64(((p[0] >> sh) | ((p[1] << 1) << (63 - sh))) &
                     (~0ULL >> (64 - len)));
}

/* Largest disk load among the disks the new bits `add` touch, at least mx.
 * Untouched disks keep their load <= mx, so they need no recount.
 * disk_of[e] is element e's disk (a lookup, not a division). */
static uint32_t touched_max(const uint64_t *add, const uint64_t *newm,
                            size_t w, uint32_t k, const uint16_t *disk_of,
                            uint32_t mx)
{
    size_t i;
    for (i = 0; i < w; i++) {
        uint64_t a = add[i];
        while (a) {
            uint32_t d = disk_of[i * 64 + (uint32_t)__builtin_ctzll(a)];
            uint32_t c = window_pop(newm, d * k, k);
            uint32_t rest = (d + 1) * k - (uint32_t)(i * 64);
            if (c > mx)
                mx = c;
            /* drop the rest of disk d's bits from this word */
            a = rest >= 64 ? 0 : a & ~((1ULL << rest) - 1);
        }
    }
    return mx;
}

/* Dense key of a (total reads, max disk load) pair, in the lexicographic
 * order of the Python key: Khan total; C (total, max); U (max, total). */
static uint32_t key_index(int kind, uint32_t total, uint32_t mx,
                          uint32_t n_el, uint32_t k)
{
    if (kind == 0)
        return total;
    if (kind == 1)
        return total * (k + 1) + mx;
    return mx * (n_el + 1) + total;
}

/* ------------------------------------------------------------------ */
/* the search                                                          */
/* ------------------------------------------------------------------ */
int64_t ucs_search(int32_t n_slots,
                   const int64_t *opt_off,    /* n_slots+1 row offsets */
                   const uint64_t *opt_masks, /* option read masks, w words each */
                   int32_t n_disks, int32_t k_rows, int32_t kind,
                   uint64_t max_expansions, /* 0 = unlimited */
                   int32_t *out_chain,      /* option index per slot */
                   ucs_stats *st)
{
    const uint32_t k = (uint32_t)k_rows, n_el = (uint32_t)(n_disks * k_rows);
    const size_t w = (n_el + 63) / 64;
    const size_t n_keys = (size_t)(n_el + 1) * (kind ? k + 1 : 1);
    states_t S;
    table_t T;
    uint32_t *head = NULL, *tail; /* rec_list buckets: FIFO of state ids +1 */
    size_t cur = 0, frontier = 1;
    int64_t ret = -1, goal = -1;
    uint64_t expanded = 0, pushed = 0, pruned_closed = 0, pruned_bound = 0;
    uint64_t peak = 1;
    uint32_t best_goal_key = 0, best_goal_sid = 0, el;
    int have_goal = 0;
    uint64_t cur_m[MAX_W], add[MAX_W], newm[MAX_W + 1] = {0};
    uint16_t disk_of[MAX_W * 64];

    memset(st, 0, sizeof(*st));
    memset(&S, 0, sizeof(S));
    memset(&T, 0, sizeof(T));
    if (w == 0 || w > MAX_W)
        return -1;
    S.w = w;
    for (el = 0; el < n_el; el++)
        disk_of[el] = (uint16_t)(el / k);
    T.cap = 1 << 12;
    T.e = blk_calloc(T.cap * sizeof(centry));
    head = calloc(2 * n_keys, sizeof(uint32_t));
    if (!T.e || !head || states_reserve(&S, 1))
        goto out;
    tail = head + n_keys;
    memset(S.mask, 0, w * sizeof(uint64_t));
    S.parent[0] = 0;
    S.next[0] = 0;
    S.opt[0] = -1;
    S.slot[0] = 0;
    S.len = 1;
    head[0] = tail[0] = 1; /* the root: key 0, state 0 */

    while (frontier) {
        uint32_t key, sid, slot, new_slot, total, mx;
        int is_goal_slot;
        int64_t oi;

        while (!head[cur])
            cur++;
        if (have_goal && best_goal_key <= cur) {
            /* early-goal cutoff (see search.py for the argument) */
            goal = best_goal_sid;
            break;
        }
        key = (uint32_t)cur;
        sid = head[cur] - 1;
        head[cur] = S.next[sid];
        frontier--;
        slot = S.slot[sid];
        if ((int32_t)slot == n_slots) {
            goal = sid;
            break;
        }
        expanded++;
        if (max_expansions && expanded > max_expansions) {
            st->status = 1;
            break;
        }
        if (kind == 0) {
            total = key;
            mx = 0;
        } else if (kind == 1) {
            total = key / (k + 1);
            mx = key % (k + 1);
        } else {
            mx = key / (n_el + 1);
            total = key % (n_el + 1);
        }
        memcpy(cur_m, &S.mask[(size_t)sid * w], w * sizeof(uint64_t));
        new_slot = slot + 1;
        is_goal_slot = (int32_t)new_slot == n_slots;
        for (oi = opt_off[slot]; oi < opt_off[slot + 1]; oi++) {
            const uint64_t *rm = &opt_masks[(size_t)oi * w];
            uint32_t new_key = key, new_total = total, nsid;
            uint64_t h;
            centry *e;
            size_t i;
            int changed = 0;
            for (i = 0; i < w; i++) {
                add[i] = rm[i] & ~cur_m[i];
                newm[i] = cur_m[i] | add[i];
                if (add[i]) {
                    changed = 1;
                    new_total += pop64(add[i]);
                }
            }
            if (changed) {
                /* the key at the parent's max load bounds it from below */
                new_key = key_index(kind, new_total, mx, n_el, k);
                if (kind && !(have_goal && new_key >= best_goal_key))
                    new_key = key_index(kind, new_total,
                                        touched_max(add, newm, w, k,
                                                    disk_of, mx),
                                        n_el, k);
            }
            if (have_goal && new_key >= best_goal_key) {
                pruned_bound++; /* never popped before the cutoff */
                continue;
            }
            h = state_hash(newm, w, new_slot);
            e = table_find(&T, h, newm, new_slot, &S);
            if (e->ref1) {
                pruned_closed++;
                continue;
            }
            if (states_reserve(&S, S.len + 1))
                goto out;
            nsid = (uint32_t)S.len;
            memcpy(&S.mask[(size_t)nsid * w], newm, w * sizeof(uint64_t));
            S.parent[nsid] = sid;
            S.next[nsid] = 0;
            S.opt[nsid] = (int32_t)(oi - opt_off[slot]);
            S.slot[nsid] = (uint16_t)new_slot;
            S.len++;
            e->tag = (uint32_t)(h >> 32);
            e->ref1 = nsid + 1;
            if (++T.n * 10 > T.cap * 7 && table_grow(&T, &S))
                goto out;
            if (head[new_key])
                S.next[tail[new_key] - 1] = nsid + 1;
            else
                head[new_key] = nsid + 1;
            tail[new_key] = nsid + 1;
            frontier++;
            if (is_goal_slot) { /* past the bound: a strictly better goal */
                have_goal = 1;
                best_goal_key = new_key;
                best_goal_sid = nsid;
            }
            pushed++;
        }
        if (frontier > peak)
            peak = frontier;
    }

    st->expanded = expanded;
    st->pushed = pushed;
    st->pruned_closed = pruned_closed;
    st->pruned_bound = pruned_bound;
    st->peak_frontier = peak;
    if (goal >= 0) {
        int64_t s = goal;
        while (s != 0) {
            out_chain[S.slot[s] - 1] = S.opt[s];
            s = S.parent[s];
        }
        ret = 0;
    } else if (st->status == 1) {
        ret = 0; /* caller falls back to the Python engine */
    }

out:
    blk_free(S.mask);
    blk_free(S.parent);
    blk_free(S.next);
    blk_free(S.opt);
    blk_free(S.slot);
    free(head);
    blk_free(T.e);
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
