/* Compiled core of the array-native engine: its only event loop.
 *
 * Replays the serialized event loop of the object engine
 * (repro/schedulers/engine.py, the oracle) over flat arrays: durations come
 * from a pre-drawn standard-normal stream plus per-kernel closed-form
 * transforms, so the whole run executes without a single Python-level
 * operation.  Every floating-point expression keeps the exact operation
 * order of the object engine and the Python samplers (build with
 * -ffp-contract=off so no FMA contraction changes rounding) and the event
 * set pops in the same (time, push-sequence) order as its heap, which keeps
 * traces byte-identical to the object engine.  Configurations this core
 * cannot replay (probes, per-call duration backends, work-stealing/dmda
 * policies) run on the object engine; see array_backend_unsupported in
 * repro/schedulers/array_engine.py.
 *
 * Deliberately free of Python.h: the library is built with a plain C
 * compiler (tools/build_array_core.py) and loaded through ctypes, so no
 * Cython/mypyc toolchain is required; without a compiler, array requests
 * run on the object engine.
 *
 * Queue kinds: 0 = FIFO (StarPU eager, OmpSs fifo), 1 = priority heap with
 * FIFO tie-break (QUARK priority, StarPU prio, OmpSs priority),
 * 2 = LIFO (QUARK lifo).  bounce_enabled adds the OmpSs immediate-successor
 * bounce slots on top of the central queue.
 *
 * Return codes: 0 ok; 1 invalid duration (counters[11] = task id);
 * 2 unfinished tasks (counters[11] = count); 3 allocation failure.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Task states, in the object engine's TaskState lifecycle order; private
 * to this file.  ST_NOT_INSERTED must stay 0 so a zeroed state array means
 * "nothing inserted yet". */
#define ST_NOT_INSERTED 0
#define ST_WAITING 1
#define ST_READY 2
#define ST_RUNNING 3
#define ST_DONE 4

#define DURATION_FLOOR 1e-9

/* ---- event set: one sorted array (FIFO ties) --------------------------- */
/* The pending-event population is bounded by one INSERT plus one FINISH
 * per running task (<= n_workers + 1), small enough that one time-sorted
 * array beats any heap or calendar.  Kept sorted descending so the pop is
 * O(1). */

typedef struct {
    double t;
    int64_t seq;
    int32_t payload;
} event_t;

typedef struct {
    event_t *buf;
    long len;
    int64_t seq;
} evq_t;

static int ev_before(const event_t *a, const event_t *b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void evq_push(evq_t *q, double t, int32_t payload) {
    event_t e;
    long lo = 0, hi = q->len, mid;
    e.t = t;
    e.seq = q->seq++;
    e.payload = payload;
    /* buf is sorted descending by (t, seq); find the insertion point. */
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (ev_before(&e, &q->buf[mid]))
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(&q->buf[lo + 1], &q->buf[lo], (q->len - lo) * sizeof(event_t));
    q->buf[lo] = e;
    q->len++;
}

static event_t evq_pop(evq_t *q) {
    return q->buf[--q->len];
}

/* ---- ready queues ------------------------------------------------------ */

typedef struct {
    int64_t prio;
    int64_t seq;
    int32_t tid;
} rq_entry_t;

static int rq_before(const rq_entry_t *a, const rq_entry_t *b) {
    /* Higher priority first; FIFO among equals — matches PriorityQueue's
     * (-priority, seq) heap entries. */
    return a->prio > b->prio || (a->prio == b->prio && a->seq < b->seq);
}

typedef struct {
    rq_entry_t *heap;
    long heap_len;
    int64_t heap_seq;
    int32_t *ring; /* FIFO / LIFO storage */
    long ring_cap, head, tail;
} readyq_t;

static void heap_push(readyq_t *q, int64_t prio, int32_t tid) {
    long i = q->heap_len++, parent;
    rq_entry_t e;
    e.prio = prio;
    e.seq = q->heap_seq++;
    e.tid = tid;
    while (i > 0) {
        parent = (i - 1) / 2;
        if (!rq_before(&e, &q->heap[parent]))
            break;
        q->heap[i] = q->heap[parent];
        i = parent;
    }
    q->heap[i] = e;
}

static int32_t heap_pop(readyq_t *q) {
    int32_t top = q->heap[0].tid;
    rq_entry_t last = q->heap[--q->heap_len];
    long i = 0, child;
    long n = q->heap_len;
    while (1) {
        child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && rq_before(&q->heap[child + 1], &q->heap[child]))
            child++;
        if (!rq_before(&q->heap[child], &last))
            break;
        q->heap[i] = q->heap[child];
        i = child;
    }
    if (n > 0)
        q->heap[i] = last;
    return top;
}

/* Per-worker OmpSs bounce slot: FIFO list with a head index. */
typedef struct {
    int32_t *buf;
    long cap, head, tail;
} bounce_t;

static int bounce_append(bounce_t *b, int32_t tid) {
    if (b->tail == b->cap) {
        long used = b->tail - b->head;
        if (b->head > 0) {
            memmove(b->buf, &b->buf[b->head], used * sizeof(int32_t));
            b->head = 0;
            b->tail = used;
        } else {
            long cap = b->cap ? b->cap * 2 : 8;
            int32_t *nb = (int32_t *)realloc(b->buf, cap * sizeof(int32_t));
            if (!nb)
                return -1;
            b->buf = nb;
            b->cap = cap;
        }
    }
    b->buf[b->tail++] = tid;
    return 0;
}

/* ---- the simulation ---------------------------------------------------- */

typedef struct {
    /* program */
    int64_t n_tasks;
    int32_t n_workers;
    const int32_t *kernel_ids;
    const int32_t *widths;
    const int64_t *priorities;
    int64_t *deps_left;
    const int64_t *succ_indptr;
    const int32_t *succ_indices;
    /* durations */
    const int32_t *tf_kind;
    const double *tf_a;
    const double *tf_b;
    const double *zs;
    int64_t zpos;
    double warmup_penalty;
    int have_warmup;
    /* scheduler constants */
    int master_is_worker;
    int64_t window;
    double insert_cost, dispatch_overhead, completion_cost;
    int queue_kind, bounce_enabled;
    /* run state */
    double now, master_free, master_debt;
    int64_t next_insert, in_flight, n_done;
    int insert_pending, window_stalled;
    int64_t n_ready;
    int32_t pending_wide; /* task id or -1 */
    uint8_t *state;
    uint8_t *running;
    uint8_t *warmed;
    int32_t *worker_of;
    double *end_of;
    int32_t *idle; /* sorted ascending */
    long n_idle;
    int32_t *scratch; /* sweep's copy of the idle list */
    evq_t evq;
    readyq_t rq;
    bounce_t *bounce;
    int64_t n_bounced;
    /* outputs */
    int32_t *out_worker;
    int32_t *out_tid;
    double *out_start;
    double *out_end;
    int64_t n_out;
    /* counters */
    int64_t heap_pushes, heap_pops, heap_size, peak_heap;
    int64_t events, insert_events, finish_events;
    int64_t window_stalls, dispatch_stalls, tasks_executed, peak_ready;
    int error_tid;
} sim_t;

static void idle_remove(sim_t *s, int32_t worker) {
    long lo = 0, hi = s->n_idle, mid;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (s->idle[mid] < worker)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(&s->idle[lo], &s->idle[lo + 1], (s->n_idle - lo - 1) * sizeof(int32_t));
    s->n_idle--;
}

static void idle_insort(sim_t *s, int32_t worker) {
    long lo = 0, hi = s->n_idle, mid;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (s->idle[mid] < worker)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(&s->idle[lo + 1], &s->idle[lo], (s->n_idle - lo) * sizeof(int32_t));
    s->idle[lo] = worker;
    s->n_idle++;
}

static void q_push(sim_t *s, int32_t tid, int32_t releasing_worker) {
    if (s->bounce_enabled && releasing_worker >= 0) {
        bounce_append(&s->bounce[releasing_worker], tid);
        s->n_bounced++;
        return;
    }
    switch (s->queue_kind) {
    case 1:
        heap_push(&s->rq, s->priorities[tid], tid);
        break;
    case 2:
        s->rq.ring[s->rq.tail++] = tid; /* LIFO stack via tail */
        break;
    default:
        s->rq.ring[s->rq.tail++] = tid; /* FIFO ring (never wraps: cap = n) */
        break;
    }
}

static int32_t q_pop(sim_t *s, int32_t worker) {
    int32_t tid = -1;
    if (s->bounce_enabled) {
        bounce_t *own = &s->bounce[worker];
        if (own->tail > own->head) {
            s->n_bounced--;
            return own->buf[own->head++];
        }
    }
    switch (s->queue_kind) {
    case 1:
        if (s->rq.heap_len > 0)
            tid = heap_pop(&s->rq);
        break;
    case 2:
        if (s->rq.tail > s->rq.head)
            tid = s->rq.ring[--s->rq.tail];
        break;
    default:
        if (s->rq.tail > s->rq.head)
            tid = s->rq.ring[s->rq.head++];
        break;
    }
    if (tid < 0 && s->bounce_enabled && s->n_bounced > 0) {
        /* Drain unclaimed bounce slots in worker order, exactly like
         * OmpSsScheduler.pop_ready. */
        int32_t w;
        for (w = 0; w < s->n_workers; w++) {
            bounce_t *b = &s->bounce[w];
            if (b->tail > b->head) {
                s->n_bounced--;
                return b->buf[b->head++];
            }
        }
    }
    return tid;
}

static void maybe_start_insertion(sim_t *s) {
    double t_ins, avail;
    if (s->next_insert >= s->n_tasks)
        return;
    if (s->in_flight >= s->window) {
        if (!s->window_stalled) {
            s->window_stalls++;
            s->window_stalled = 1;
        }
        return;
    }
    s->window_stalled = 0;
    if (s->insert_pending)
        return;
    if (s->master_is_worker) {
        if (s->running[0])
            return;
        t_ins = s->now + s->master_debt + s->insert_cost;
    } else {
        avail = s->now >= s->master_free ? s->now : s->master_free;
        t_ins = avail + s->master_debt + s->insert_cost;
        s->master_free = t_ins;
    }
    s->master_debt = 0.0;
    s->insert_pending = 1;
    evq_push(&s->evq, t_ins, -1);
    s->heap_pushes++;
    if (++s->heap_size > s->peak_heap)
        s->peak_heap = s->heap_size;
}

static int assign(sim_t *s, int32_t tid, int32_t worker) {
    double start, d, end;
    int32_t w = s->widths[tid], k, kind, ww;
    s->state[tid] = ST_RUNNING;
    s->worker_of[tid] = worker;
    start = s->now + s->dispatch_overhead;
    if (s->master_is_worker && worker == 0 && s->master_debt > 0.0) {
        start += s->master_debt;
        s->master_debt = 0.0;
    }
    k = s->kernel_ids[tid];
    kind = s->tf_kind[k];
    if (kind == 0) {
        d = s->tf_a[k];
    } else if (kind == 1) {
        d = s->tf_a[k] + s->tf_b[k] * s->zs[s->zpos++];
        if (d < DURATION_FLOOR)
            d = DURATION_FLOOR;
    } else {
        d = exp(s->tf_a[k] + s->tf_b[k] * s->zs[s->zpos++]);
        if (d < DURATION_FLOOR)
            d = DURATION_FLOOR;
    }
    if (s->have_warmup && !s->warmed[worker]) {
        s->warmed[worker] = 1;
        d += s->warmup_penalty;
    }
    if (!(d >= 0.0) || !isfinite(d)) {
        s->error_tid = tid;
        return 1;
    }
    end = start + d;
    s->end_of[tid] = end;
    if (w == 1) {
        s->running[worker] = 1;
        idle_remove(s, worker);
    } else {
        for (ww = worker; ww < worker + w; ww++) {
            s->running[ww] = 1;
            idle_remove(s, ww);
        }
    }
    s->tasks_executed++;
    s->out_worker[s->n_out] = worker;
    s->out_tid[s->n_out] = tid;
    s->out_start[s->n_out] = start;
    s->out_end[s->n_out] = end;
    s->n_out++;
    evq_push(&s->evq, end, tid);
    s->heap_pushes++;
    if (++s->heap_size > s->peak_heap)
        s->peak_heap = s->heap_size;
    return 0;
}

static int32_t gang_start(sim_t *s, int32_t width) {
    int master_ok = 1;
    int32_t run_start = -1, prev = -2, worker;
    int32_t run_len = 0;
    long i;
    if (s->master_is_worker)
        master_ok = !s->insert_pending &&
                    (s->next_insert >= s->n_tasks || s->in_flight >= s->window);
    for (i = 0; i < s->n_idle; i++) {
        worker = s->idle[i];
        if (s->running[worker] || (worker == 0 && !master_ok)) {
            prev = -2;
            continue;
        }
        if (worker == prev + 1 && run_len > 0)
            run_len++;
        else {
            run_start = worker;
            run_len = 1;
        }
        if (run_len == width)
            return run_start;
        prev = worker;
    }
    return -1;
}

static int dispatch_sweep(sim_t *s) {
    int32_t tid, worker, start, wide;
    int master_blocked, progress;
    long i, n;
    while (s->n_idle > 0) {
        if (s->pending_wide >= 0) {
            start = gang_start(s, s->widths[s->pending_wide]);
            if (start < 0) {
                s->dispatch_stalls++;
                return 0;
            }
            wide = s->pending_wide;
            s->pending_wide = -1;
            if (assign(s, wide, start))
                return 1;
            continue;
        }
        if (s->n_ready == 0)
            return 0;
        master_blocked =
            s->master_is_worker &&
            (s->insert_pending ||
             (s->next_insert < s->n_tasks && s->in_flight < s->window));
        progress = 0;
        n = s->n_idle;
        memcpy(s->scratch, s->idle, n * sizeof(int32_t));
        for (i = 0; i < n; i++) {
            worker = s->scratch[i];
            if (s->running[worker] || (master_blocked && worker == 0))
                continue;
            tid = q_pop(s, worker);
            if (tid < 0) {
                if (s->n_ready == 0)
                    return 0;
                continue;
            }
            s->n_ready--;
            if (s->widths[tid] > 1) {
                s->pending_wide = tid;
                progress = 1;
                break;
            }
            if (assign(s, tid, worker))
                return 1;
            progress = 1;
            if (s->n_ready == 0)
                return 0;
        }
        if (!progress) {
            s->dispatch_stalls++;
            break;
        }
    }
    return 0;
}

int repro_run_serialized(
    int64_t n_tasks, int32_t n_workers,
    const int32_t *kernel_ids, const int32_t *widths, const int64_t *priorities,
    int64_t *deps_left, const int64_t *succ_indptr, const int32_t *succ_indices,
    const int32_t *tf_kind, const double *tf_a, const double *tf_b,
    const double *zs, double warmup_penalty,
    int32_t master_is_worker, int64_t window,
    double insert_cost, double dispatch_overhead, double completion_cost,
    int32_t queue_kind, int32_t bounce_enabled,
    int32_t *out_worker, int32_t *out_tid, double *out_start, double *out_end,
    int64_t *counters)
{
    sim_t s;
    event_t ev;
    int rc = 0;
    int32_t tid, worker, w, ww, sid;
    int64_t lo, hi, i, d;

    memset(&s, 0, sizeof(s));
    s.n_tasks = n_tasks;
    s.n_workers = n_workers;
    s.kernel_ids = kernel_ids;
    s.widths = widths;
    s.priorities = priorities;
    s.deps_left = deps_left;
    s.succ_indptr = succ_indptr;
    s.succ_indices = succ_indices;
    s.tf_kind = tf_kind;
    s.tf_a = tf_a;
    s.tf_b = tf_b;
    s.zs = zs;
    s.warmup_penalty = warmup_penalty;
    s.have_warmup = warmup_penalty > 0.0;
    s.master_is_worker = master_is_worker;
    s.window = window;
    s.insert_cost = insert_cost;
    s.dispatch_overhead = dispatch_overhead;
    s.completion_cost = completion_cost;
    s.queue_kind = queue_kind;
    s.bounce_enabled = bounce_enabled;
    s.pending_wide = -1;
    s.error_tid = -1;
    s.out_worker = out_worker;
    s.out_tid = out_tid;
    s.out_start = out_start;
    s.out_end = out_end;

    s.state = (uint8_t *)calloc(n_tasks ? n_tasks : 1, 1);
    s.running = (uint8_t *)calloc(n_workers, 1);
    s.warmed = (uint8_t *)calloc(n_workers, 1);
    s.worker_of = (int32_t *)malloc((n_tasks ? n_tasks : 1) * sizeof(int32_t));
    s.end_of = (double *)malloc((n_tasks ? n_tasks : 1) * sizeof(double));
    s.idle = (int32_t *)malloc(n_workers * sizeof(int32_t));
    s.scratch = (int32_t *)malloc(n_workers * sizeof(int32_t));
    s.evq.buf = (event_t *)malloc((n_workers + 2) * sizeof(event_t));
    s.rq.heap = NULL;
    s.rq.ring = NULL;
    if (queue_kind == 1)
        s.rq.heap = (rq_entry_t *)malloc((n_tasks ? n_tasks : 1) * sizeof(rq_entry_t));
    else
        s.rq.ring = (int32_t *)malloc((n_tasks ? n_tasks : 1) * sizeof(int32_t));
    if (bounce_enabled)
        s.bounce = (bounce_t *)calloc(n_workers, sizeof(bounce_t));
    if (!s.state || !s.running || !s.warmed || !s.worker_of || !s.end_of ||
        !s.idle || !s.scratch || !s.evq.buf ||
        (queue_kind == 1 ? !s.rq.heap : !s.rq.ring) ||
        (bounce_enabled && !s.bounce)) {
        rc = 3;
        goto done;
    }
    for (worker = 0; worker < n_workers; worker++)
        s.idle[worker] = worker;
    s.n_idle = n_workers;

    maybe_start_insertion(&s);

    while (s.evq.len > 0) {
        ev = evq_pop(&s.evq);
        s.heap_pops++;
        s.heap_size--;
        s.events++;
        if (ev.t > s.now)
            s.now = ev.t;
        if (ev.payload < 0) {
            /* INSERT: the master commits the next task in stream order. */
            s.insert_events++;
            s.insert_pending = 0;
            tid = (int32_t)s.next_insert;
            s.next_insert++;
            s.in_flight++;
            if (s.deps_left[tid] == 0) {
                s.state[tid] = ST_READY;
                if (++s.n_ready > s.peak_ready)
                    s.peak_ready = s.n_ready;
                q_push(&s, tid, -1);
            } else {
                s.state[tid] = ST_WAITING;
            }
        } else {
            /* FINISH: free the task's workers, release its successors. */
            s.finish_events++;
            tid = ev.payload;
            worker = s.worker_of[tid];
            s.state[tid] = ST_DONE;
            w = s.widths[tid];
            if (w == 1) {
                s.running[worker] = 0;
                idle_insort(&s, worker);
            } else {
                for (ww = worker; ww < worker + w; ww++) {
                    s.running[ww] = 0;
                    idle_insort(&s, ww);
                }
            }
            s.in_flight--;
            s.n_done++;
            s.master_debt += s.completion_cost;
            lo = succ_indptr[tid];
            hi = succ_indptr[tid + 1];
            for (i = lo; i < hi; i++) {
                sid = succ_indices[i];
                d = --s.deps_left[sid];
                if (d == 0 && s.state[sid] == ST_WAITING) {
                    s.state[sid] = ST_READY;
                    if (++s.n_ready > s.peak_ready)
                        s.peak_ready = s.n_ready;
                    q_push(&s, sid, worker);
                }
            }
        }
        maybe_start_insertion(&s);
        if (dispatch_sweep(&s)) {
            rc = 1;
            goto done;
        }
    }

    if (s.n_done != n_tasks)
        rc = 2;

done:
    counters[0] = s.events;
    counters[1] = s.insert_events;
    counters[2] = s.finish_events;
    counters[3] = s.heap_pushes;
    counters[4] = s.heap_pops;
    counters[5] = s.peak_heap;
    counters[6] = s.window_stalls;
    counters[7] = s.dispatch_stalls;
    counters[8] = s.tasks_executed;
    counters[9] = s.peak_ready;
    counters[10] = s.n_out;
    counters[11] = rc == 1 ? s.error_tid : (rc == 2 ? n_tasks - s.n_done : 0);
    free(s.state);
    free(s.running);
    free(s.warmed);
    free(s.worker_of);
    free(s.end_of);
    free(s.idle);
    free(s.scratch);
    free(s.evq.buf);
    free(s.rq.heap);
    free(s.rq.ring);
    if (s.bounce) {
        for (worker = 0; worker < n_workers; worker++)
            free(s.bounce[worker].buf);
        free(s.bounce);
    }
    return rc;
}
