"""The compiled simulation library: C source, build cache and ctypes binding.

Every native step from a program to its cache statistics runs in one
small C library, :data:`REPLAY_SOURCE`, with three entry points, each
checked bit for bit against a Python or NumPy oracle in ``tests/``:

* ``run_program`` -- the functional simulator's interpreter loop: runs a
  pre-decoded program (one row of :data:`RUN_COLUMNS` per static
  instruction: how to execute it, and the static facts its trace entry
  needs -- timing class, loaded and read register bits, condition-code
  update, window step) to HALT, and writes the trace as it executes
  (:data:`TRACE_COLUMNS`: the six columns of an
  :class:`~repro.microarch.trace.ExecutionTrace`, taken and untaken
  branches resolved and both hazard columns set, then the data-cache
  access stream with its write flags), counting every instruction class
  and both hazards on the way.  The last executed instruction's load
  bit and condition-code flag are part of the :data:`RUN_STATE` vector,
  so a hazard that straddles a resume is recorded like any other
  (oracle ``ReferenceSimulator`` in ``tests/reference_simulator.py``);
* ``group_sets`` -- the one set grouping: events bucketed by
  ``line & mask`` in trace order and every chain of consecutive same-line
  events within a set collapsed, one pass to build the chains and one to
  place them by set.  :func:`decode_view` groups a trace's ``uint32``
  addresses, shifted to lines, at the floor set count in one call
  (:func:`~repro.microarch.cachekernel.decode_trace`; oracle
  ``reference_set_view(reference_decode(...))`` in
  ``tests/reference_replay.py``), and :func:`derive_view` groups a view's
  chains again by a wider mask, which gives the view at that set count
  (:meth:`~repro.microarch.cachekernel.ColumnarTrace.set_view`; oracle
  ``reference_set_view``);
* ``replay_cold`` -- the per-chain replay loop ``replay_view`` (a port
  of ``replay_events_loop``) for every cold geometry of one decoded
  view in one call, each row naming its set view, with the throwaway
  states allocated in C.

It is compiled on first use with ``cc -O2 -shared -fPIC`` and loaded
with :mod:`ctypes`; there is no fallback implementation, so a host
without a C compiler fails with :class:`~repro.errors.ReplayKernelError`
on the first simulation or decode.  The C code trusts its indices, so
the wrappers here check every array they pass (dtype, shape, contiguity,
index ranges, powers of two) and size every output; C allocates no
output buffer.

The shared object is cached per user in ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``, created with mode 0700), named by a sha256
of the source, the flags and the compiler's identity (its resolved path,
size and modification time, read without running it).  A warm process
therefore loads the cached library without spawning anything, and a
compiler upgrade or a source change builds a new one: a cached library
can never be stale.  Builds write to a temporary file in the cache
directory and ``os.replace`` it into place, so concurrent processes
filling an empty cache all succeed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReplayKernelError

__all__ = ["CFLAGS", "COMPILER", "OPCODES", "REPLAY_SOURCE", "RUN_COLUMNS", "RUN_STATE",
           "TRACE_COLUMNS", "Run",
           "decode_view", "derive_view", "replay_cold", "run_program"]

#: Policy codes shared with the C source.
POLICY_LRU, POLICY_LRR, POLICY_RANDOM = 0, 1, 2

#: ``run_program`` operations, by code: the names of their
#: :class:`~repro.isa.instructions.Op` members, then FAULT, which stops
#: the run at its row (an unimplemented operation, or a program counter
#: outside the text segment).
OPCODES = ("ADD", "ADDCC", "SUB", "SUBCC", "AND", "ANDCC", "OR", "ORCC", "XOR", "XORCC",
           "SLL", "SRL", "SRA", "SETHI", "UMUL", "SMUL", "UDIV", "SDIV",
           "LD", "LDUB", "LDUH", "LDSB", "LDSH", "ST", "STB", "STH",
           "BRANCH", "CALL", "JMPL", "RET", "RETL", "SAVE", "RESTORE", "NOP", "HALT",
           "FAULT")

#: Columns of one decoded instruction: the opcode; the destination (or a
#: store's data) register and the two sources as their
#: :data:`~repro.isa.registers.REGISTER_SLOTS` ``(offset, mask)`` (RS2 -1:
#: the second operand is IMM); the immediate as 32 bits (SETHI's: the value
#: it sets); SDIV's signed immediate divisor; a branch's or call's target
#: row; a branch's 16-bit condition mask over ``N<<3 | Z<<2 | V<<1 | C``
#: (-1: an unknown condition); then the static facts the trace records: the
#: timing class code (a branch's untaken class, one less than its taken
#: class), the bit of the register a load writes (0 elsewhere), the bits of
#: the window-relative registers the instruction reads, whether it sets the
#: condition codes, and its register-window step (+1 SAVE, -1 RESTORE/RET).
RUN_COLUMNS = ("OP", "RD", "RD_MASK", "RS1", "RS1_MASK", "RS2", "RS2_MASK", "IMM",
               "DIVISOR", "TARGET", "COND", "CLASS", "LOADS", "READS", "SETS_ICC", "WINDOW")

#: ``run_program``'s state vector: the next (or faulting) row, the packed
#: condition codes, the window base, the register slots in use, the
#: instructions executed (the entries of each per-instruction column), the
#: target of a computed jump that left the text segment, a refused access's
#: address and size, the entries of the window-event and data-access
#: columns, the last executed instruction's load bit and condition-code
#: flag (so a hazard that straddles a resume is still seen), and the
#: load-use and condition-code-branch hazards counted so far.
RUN_STATE = ("ROW", "ICC", "BASE", "USED", "EXECUTED", "PC", "ADDRESS", "SIZE",
             "EVENTS", "ACCESSES", "LOADED", "SET_ICC", "LOAD_USES", "CC_BRANCHES")

#: The columns ``run_program`` writes and their dtypes: the six
#: per-instruction columns of an :class:`~repro.microarch.trace.ExecutionTrace`
#: (one entry per executed instruction but ``window_events``, one per SAVE,
#: RESTORE or RET), then the data-cache access stream (the address and a
#: write flag of every load and store).
TRACE_COLUMNS = (("pcs", np.uint32), ("op_classes", np.uint8), ("mem_addrs", np.uint32),
                 ("load_use_hazard", np.bool_), ("cc_branch_hazard", np.bool_),
                 ("window_events", np.int8), ("data_addresses", np.uint32),
                 ("data_is_write", np.bool_))

#: Why ``run_program`` returned: HALT executed; the budget is spent; the
#: row ``state[ROW]`` faults; an access was refused; RESTORE or RET below
#: the initial window; the output columns are full; a SAVE needs more
#: register slots.  The last two resume.
RUN_STATUSES = ("HALT", "BUDGET", "FAULT", "MEMORY", "UNDERFLOW", "FULL", "REGISTERS")
(RUN_HALT, RUN_BUDGET, RUN_FAULT, RUN_MEMORY, RUN_UNDERFLOW, RUN_FULL,
 RUN_REGISTERS) = range(len(RUN_STATUSES))

#: Entries of the first output columns of a run, and register slots of
#: its first register file (the globals and eight windows); both double
#: as a run needs more.  Each doubling allocates and copies every column,
#: so the columns start at 272 KiB, which holds a test-size application.
_FIRST_OUTPUTS = 1 << 14
_FIRST_REGISTERS = 32 + 16 * 8

#: Class codes ``run_program`` counts: any ``uint8`` (a taken branch's
#: class is one more than its row's ``CLASS``).
_CLASS_CODES = 256

COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC")


def _enum(prefix: str, names: Sequence[str]) -> str:
    return "enum { " + ", ".join(prefix + name for name in names) + " };\n"


REPLAY_SOURCE = (
    "#include <stdint.h>\n#include <stdlib.h>\n#include <string.h>\n"
    + _enum("OP_", OPCODES) + _enum("C_", RUN_COLUMNS + ("WIDTH",))
    + _enum("S_", RUN_STATE) + _enum("RUN_", RUN_STATUSES)
    + _enum("T_", [name.upper() for name, _ in TRACE_COLUMNS]) + r"""
/* The packed N and Z flags of a result */
#define NZ(r) (((r) >> 28 & 8) | ((r) == 0) << 2)

/* Run a decoded program from row state[S_ROW] until HALT, a fault, the
   budget of executed instructions or full columns, and store the state
   back, so a call after RUN_FULL or RUN_REGISTERS resumes the run.  code
   holds C_WIDTH columns per row: rows [0, n) are the text segment, row n
   (falling off its end), row n + 1 (a computed jump outside it, to
   state[S_PC]) and any later rows (static targets outside it) are FAULT
   rows.  A register is the slot (base & mask) + offset of regs, whose
   first state[S_USED] slots are in use and the rest zero; slot 0 is %g0,
   so a write to it is undone.  trace holds the T_ columns, `capacity`
   entries each, filled from entry state[S_EXECUTED] (state[S_EVENTS] and
   state[S_ACCESSES] for the window events and data accesses, never more
   than the instructions), so one check per instruction keeps them all in
   bounds.  Each executed instruction's class is counted in counts. */
int64_t run_program(const int64_t *code, int64_t n, int64_t text_base,
                    uint8_t *memory, int64_t memory_size, uint32_t *regs,
                    int64_t reg_capacity, int64_t budget, int64_t capacity,
                    void *const *trace, int64_t *counts, int64_t *state)
{
    uint32_t *pcs = trace[T_PCS], *mem_addrs = trace[T_MEM_ADDRS],
             *data_addresses = trace[T_DATA_ADDRESSES];
    uint8_t *classes = trace[T_OP_CLASSES], *load_use = trace[T_LOAD_USE_HAZARD],
            *cc_branch = trace[T_CC_BRANCH_HAZARD], *writes = trace[T_DATA_IS_WRITE];
    int8_t *events = trace[T_WINDOW_EVENTS];
    int64_t k = state[S_ROW], base = state[S_BASE], used = state[S_USED];
    int64_t executed = state[S_EXECUTED], ne = state[S_EVENTS], na = state[S_ACCESSES];
    int64_t load_uses = state[S_LOAD_USES], cc_branches = state[S_CC_BRANCHES];
    int64_t limit = budget < capacity ? budget : capacity, size = 0, status;
    /* loaded: the register bit the last instruction loaded; set_icc: it set the codes */
    int64_t loaded = state[S_LOADED], set_icc = state[S_SET_ICC];
    uint32_t icc = (uint32_t)state[S_ICC], a = 0;

/* check a `bytes`-wide access at x + y and record it, a write if `write` */
#define ACCESS(bytes, write)                                                 \
    a = x + y;                                                               \
    size = bytes;                                                            \
    if ((a & (bytes - 1)) || (int64_t)a > memory_size - bytes)               \
        goto memory_fault;                                                   \
    data_addresses[na] = a;                                                  \
    writes[na++] = write
/* continue at the row of pc, or fault there when it is outside the text */
#define JUMP(pc)                                                             \
    do {                                                                     \
        int64_t offset = (int64_t)(pc) - text_base;                          \
        if ((offset & 3) || offset < 0 || offset >= 4 * n) {                 \
            state[S_PC] = (pc);                                              \
            next = n + 1;                                                    \
        } else {                                                             \
            next = offset >> 2;                                              \
        }                                                                    \
    } while (0)
/* append the executed instruction to the trace; a load-use hazard marks
   the load, the entry before this one */
#define RECORD                                                               \
    do {                                                                     \
        int hazard = set_icc && c[C_OP] == OP_BRANCH;                        \
        pcs[executed] = (uint32_t)(text_base + 4 * k);                       \
        classes[executed] = (uint8_t)cls;                                    \
        mem_addrs[executed] = a;                                             \
        load_use[executed] = 0;                                              \
        cc_branch[executed] = hazard;                                        \
        cc_branches += hazard;                                               \
        if (loaded & c[C_READS]) {                                           \
            load_use[executed - 1] = 1;                                      \
            load_uses++;                                                     \
        }                                                                    \
        if (c[C_WINDOW])                                                     \
            events[ne++] = (int8_t)c[C_WINDOW];                              \
        counts[cls]++;                                                       \
        loaded = c[C_LOADS];                                                 \
        set_icc = c[C_SETS_ICC];                                             \
        executed++;                                                          \
    } while (0)

    for (;;) {
        if (executed >= limit) {
            status = executed >= budget ? RUN_BUDGET : RUN_FULL;
            goto out;
        }
        const int64_t *c = code + k * C_WIDTH;
        uint32_t x = regs[(base & c[C_RS1_MASK]) + c[C_RS1]];
        uint32_t y = c[C_RS2] < 0 ? (uint32_t)c[C_IMM]
                                  : regs[(base & c[C_RS2_MASK]) + c[C_RS2]];
        uint32_t *rd = regs + (base & c[C_RD_MASK]) + c[C_RD];
        uint32_t v = 0, link = (uint32_t)(text_base + 4 * (k + 1));
        int64_t next = k + 1, cls = c[C_CLASS];
        a = 0;
        switch (c[C_OP]) {
        case OP_ADD: v = x + y; break;
        case OP_ADDCC: {
            uint64_t sum = (uint64_t)x + y;
            v = (uint32_t)sum;
            icc = NZ(v) | ((~(x ^ y) & (x ^ v)) >> 30 & 2) | (uint32_t)(sum >> 32);
            break;
        }
        case OP_SUB: v = x - y; break;
        case OP_SUBCC:
            v = x - y;
            icc = NZ(v) | (((x ^ y) & (x ^ v)) >> 30 & 2) | (y > x);
            break;
        case OP_AND: v = x & y; break;
        case OP_ANDCC: v = x & y; icc = NZ(v); break;
        case OP_OR: v = x | y; break;
        case OP_ORCC: v = x | y; icc = NZ(v); break;
        case OP_XOR: v = x ^ y; break;
        case OP_XORCC: v = x ^ y; icc = NZ(v); break;
        case OP_SLL: v = x << (y & 31); break;
        case OP_SRL: v = x >> (y & 31); break;
        case OP_SRA: v = (uint32_t)((int32_t)x >> (y & 31)); break;
        case OP_SETHI: v = (uint32_t)c[C_IMM]; break;
        case OP_UMUL: case OP_SMUL: v = x * y; break;  /* equal low 32 bits */
        case OP_UDIV:
            if (!y) goto fault;
            v = x / y;
            break;
        case OP_SDIV: {
            /* on magnitudes; an immediate divisor keeps its own sign */
            int64_t p = (int32_t)x, d = c[C_RS2] < 0 ? c[C_DIVISOR] : (int32_t)y;
            if (!y || !d) goto fault;
            uint64_t q = (uint64_t)(p < 0 ? -p : p) / (uint64_t)(d < 0 ? -d : d);
            v = (uint32_t)((p < 0) != (d < 0) ? -q : q);
            break;
        }
        case OP_LD: ACCESS(4, 0); memcpy(&v, memory + a, 4); break;
        case OP_LDUB: ACCESS(1, 0); v = memory[a]; break;
        case OP_LDUH: { uint16_t h; ACCESS(2, 0); memcpy(&h, memory + a, 2); v = h; break; }
        case OP_LDSB: ACCESS(1, 0); v = (uint32_t)(int32_t)(int8_t)memory[a]; break;
        case OP_LDSH: { int16_t h; ACCESS(2, 0); memcpy(&h, memory + a, 2);
                        v = (uint32_t)(int32_t)h; break; }
        case OP_ST: ACCESS(4, 1); memcpy(memory + a, rd, 4); goto done;
        case OP_STB: ACCESS(1, 1); memory[a] = (uint8_t)*rd; goto done;
        case OP_STH: { uint16_t h = (uint16_t)*rd; ACCESS(2, 1); memcpy(memory + a, &h, 2);
                       goto done; }
        case OP_BRANCH:
            if (c[C_COND] < 0) goto fault;
            if (c[C_COND] >> icc & 1) {
                next = c[C_TARGET];
                cls++;  /* the taken class */
            }
            goto done;
        case OP_CALL: v = link; next = c[C_TARGET]; break;
        case OP_JMPL: v = link; JUMP(x + y); break;
        case OP_RETL: JUMP(x); goto done;
        case OP_RET:
            if (!base) goto underflow;
            base -= 16;
            JUMP(x);
            goto done;
        case OP_SAVE:
            if (base + 48 > reg_capacity) {
                status = RUN_REGISTERS;
                goto out;
            }
            v = x + y;
            base += 16;
            if (base + 32 > used) used = base + 32;
            rd = regs + (base & c[C_RD_MASK]) + c[C_RD];  /* in the new window */
            break;
        case OP_RESTORE:
            if (!base) goto underflow;
            v = x + y;
            base -= 16;
            rd = regs + (base & c[C_RD_MASK]) + c[C_RD];
            break;
        case OP_NOP: goto done;
        case OP_HALT:
            RECORD;
            status = RUN_HALT;
            goto out;
        default: goto fault;
        }
        *rd = v;
        regs[0] = 0;
    done:
        RECORD;
        k = next;
    }
memory_fault:
    state[S_ADDRESS] = a;
    state[S_SIZE] = size;
    status = RUN_MEMORY;
    goto out;
underflow:
    status = RUN_UNDERFLOW;
    goto out;
fault:
    status = RUN_FAULT;
out:
    state[S_ROW] = k;
    state[S_ICC] = icc;
    state[S_BASE] = base;
    state[S_USED] = used;
    state[S_EXECUTED] = executed;
    state[S_EVENTS] = ne;
    state[S_ACCESSES] = na;
    state[S_LOADED] = loaded;
    state[S_SET_ICC] = set_icc;
    state[S_LOAD_USES] = load_uses;
    state[S_CC_BRANCHES] = cc_branches;
    return status;
}

/* Group events by set (line & mask; sets ascending, each in trace order)
   and collapse every maximal chain of consecutive same-line events of a
   set into one: the minimum first read, the last position, and the
   members' writes before any member's read.  The events are the chains
   of a view (rows: line, first read -- accesses when there is none --,
   last position, writes before the read; four rows of `events`), or, when
   addresses is set, a trace's accesses: line addresses[e] >> shift, a read
   at e or a write (writes[e]) before any read.  One pass builds the chains
   in trace order, a second places them by set, as four rows of `chains`
   packed at the front of out (room for 4 * events).  A view grouped again
   by a wider mask is the view at that set count: each new set's chains
   come from one old set, in trace order, and merge by the same rule.
   Returns the chain count, -1 without scratch memory, -2 for a negative line. */
static inline __attribute__((always_inline)) int64_t
group(int64_t events, const int64_t *rows, const uint32_t *addresses, const uint8_t *writes,
      int64_t shift, int64_t accesses, int64_t mask, int64_t *out)
{
    int64_t sets = mask + 1, chains = 0;
    int64_t *next = calloc(sets, sizeof *next);   /* chains per set, then its next slot */
    int64_t *open = malloc(sets * sizeof *open);  /* each set's current chain */
    int64_t *last = malloc(sets * sizeof *last);  /* each set's last line, -1: none yet */
    int64_t *chain = malloc((4 * events + 1) * sizeof *chain);  /* chains in trace order */
    if (!next || !open || !last || !chain) {
        chains = -1;
        goto out;
    }
    for (int64_t s = 0; s < sets; s++)
        last[s] = -1;
    int64_t *line = chain, *first_read = chain + events, *last_pos = chain + 2 * events,
            *w_pre = chain + 3 * events;
    for (int64_t e = 0; e < events; e++) {
        int64_t l = addresses ? (int64_t)addresses[e] >> shift : rows[e], s = l & mask;
        int64_t c, event_first_read, event_last_pos, event_w_pre;
        if (l < 0) {  /* would pass for a set with no chain yet */
            chains = -2;
            goto out;
        }
        if (addresses) {
            event_w_pre = writes && writes[e];
            event_first_read = event_w_pre ? accesses : e;
            event_last_pos = e;
        } else {
            event_first_read = rows[events + e];
            event_last_pos = rows[2 * events + e];
            event_w_pre = rows[3 * events + e];
        }
        if (last[s] != l) {
            last[s] = l;
            c = open[s] = chains++;
            next[s]++;
            line[c] = l;
            first_read[c] = event_first_read;
            w_pre[c] = event_w_pre;
        } else {
            c = open[s];
            if (first_read[c] >= accesses)  /* no read in the chain yet */
                w_pre[c] += event_w_pre;
            if (event_first_read < first_read[c])
                first_read[c] = event_first_read;
        }
        last_pos[c] = event_last_pos;
    }
    /* each set's first output slot, then the chains by set */
    for (int64_t start = 0, s = 0; s < sets; s++) {
        int64_t count = next[s];
        next[s] = start;
        start += count;
    }
    for (int64_t c = 0; c < chains; c++) {
        int64_t k = next[line[c] & mask]++;
        out[k] = line[c];
        out[chains + k] = first_read[c];
        out[2 * chains + k] = last_pos[c];
        out[3 * chains + k] = w_pre[c];
    }
out:
    free(next);
    free(open);
    free(last);
    free(chain);
    return chains;
}

/* group for a view's rows or a trace's accesses: each call inlines it with
   the other input NULL, so the compiler drops the test per event */
int64_t group_sets(int64_t events, const int64_t *rows, const uint32_t *addresses,
                   const uint8_t *writes, int64_t shift, int64_t accesses, int64_t mask,
                   int64_t *out)
{
    return addresses ? group(events, NULL, addresses, writes, shift, accesses, mask, out)
                     : group(events, rows, NULL, NULL, 0, accesses, mask, out);
}

/* Replay a set view (as group_sets writes it) against one cache geometry
   of mask + 1 sets: a chain's set is line & mask, and a way holds the
   line it caches, -1 when invalid.  tags/age are (sets, ways) row-major,
   fifo is per set.  Stores read and write misses in misses[0..1]. */
static void replay_view(int64_t chains, const int64_t *view, int64_t accesses,
                        int64_t mask, int64_t *tags, int64_t *age, int64_t *fifo,
                        const int64_t *victims, int64_t ways, int64_t policy,
                        int64_t *misses)
{
    const int64_t *line = view, *first_read = view + chains, *last_pos = view + 2 * chains,
                  *w_pre = view + 3 * chains;
    int64_t read_misses = 0, write_misses = 0;
    for (int64_t e = 0; e < chains; e++) {
        int64_t s = line[e] & mask, t = line[e], w, victim = -1;
        int64_t *row = tags + s * ways, *row_age = age + s * ways;
        for (w = 0; w < ways && row[w] != t; w++)
            ;
        if (w < ways) {
            if (policy == 0)  /* LRU promotes on hit */
                row_age[w] = 1 + last_pos[e];
            continue;
        }
        write_misses += w_pre[e];
        if (first_read[e] >= accesses)
            continue;  /* write-through, no write-allocate */
        read_misses++;
        for (w = 0; w < ways; w++)
            if (row[w] == -1) { victim = w; break; }
        if (victim < 0) {
            if (ways == 1) {
                victim = 0;
            } else if (policy == 0) {  /* LRU: first least recent way */
                victim = 0;
                for (w = 1; w < ways; w++)
                    if (row_age[w] < row_age[victim]) victim = w;
            } else if (policy == 1) {  /* LRR: FIFO pointer moves on eviction */
                victim = fifo[s];
                fifo[s] = (victim + 1) % ways;
            } else {  /* RANDOM: pre-drawn victim of the filling access */
                victim = victims[first_read[e]];
            }
        }
        row[victim] = t;
        row_age[victim] = 1 + (policy == 0 ? last_pos[e] : first_read[e]);
    }
    misses[0] = read_misses;
    misses[1] = write_misses;
}

/* Cold replays of `configs` geometries of one trace of `accesses`
   accesses, each a row of six: the address and chain count of its set
   view, its sets (a power of two), ways, policy, and the address of its
   RANDOM victims (0 unless it draws them).  Every replay starts from an
   empty cache; the states are discarded.  Stores configuration k's read
   and write misses in misses[2k..2k+1]; returns -1 when the states
   cannot be allocated. */
int64_t replay_cold(int64_t accesses, int64_t configs, const int64_t *rows,
                    int64_t *misses)
{
    int64_t most = 1, most_sets = 1;
    for (int64_t k = 0; k < configs; k++) {
        const int64_t *row = rows + 6 * k;
        if (row[2] * row[3] > most) most = row[2] * row[3];
        if (row[2] > most_sets) most_sets = row[2];
    }
    int64_t *tags = malloc(most * sizeof *tags);
    int64_t *age = malloc(most * sizeof *age);
    int64_t *fifo = malloc(most_sets * sizeof *fifo);
    if (!tags || !age || !fifo) {
        free(tags);
        free(age);
        free(fifo);
        return -1;
    }
    for (int64_t k = 0; k < configs; k++) {
        const int64_t *row = rows + 6 * k;
        int64_t sets = row[2], ways = row[3];
        /* every way starts invalid, and a fill writes its age before LRU
           can compare it, so ages need no reset */
        for (int64_t i = 0; i < sets * ways; i++)
            tags[i] = -1;
        for (int64_t s = 0; s < sets; s++)
            fifo[s] = 0;
        replay_view(row[1], (const int64_t *)(intptr_t)row[0], accesses, sets - 1, tags,
                    age, fifo, (const int64_t *)(intptr_t)row[5], ways, row[4],
                    misses + 2 * k);
    }
    free(tags);
    free(age);
    free(fifo);
    return 0;
}
""")

_lock = threading.Lock()
_library = None  # the loaded library, its functions typed, set on first use


def _cache_dir() -> Path:
    """Per-user directory holding compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _library_path() -> tuple:
    """``(compiler, path)``: the compiler to build with and the cached library.

    The name hashes the source, the flags and the compiler's resolved
    path, size and mtime, so no process is spawned to identify it.
    """
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise ReplayKernelError(
            f"no C compiler: {COMPILER!r} was not found on PATH; the functional "
            f"simulator and the cache replay loop are compiled on first use "
            f"and have no fallback")
    real = os.path.realpath(compiler)
    info = os.stat(real)
    key = hashlib.sha256("\0".join(
        [REPLAY_SOURCE, " ".join(CFLAGS), real, str(info.st_size),
         str(info.st_mtime_ns)]).encode()).hexdigest()
    return compiler, _cache_dir() / f"replay-{key[:24]}.so"


def _build(compiler: str, target: Path) -> None:
    fd, source = tempfile.mkstemp(prefix=".replay-", suffix=".c", dir=target.parent)
    output = source[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(REPLAY_SOURCE)
        done = subprocess.run([compiler, *CFLAGS, "-o", output, source],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ReplayKernelError(
                f"{compiler} failed to build the simulation library:\n{done.stderr}")
        os.replace(output, target)
    finally:
        for leftover in (source, output):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _load():
    global _library
    if _library is not None:
        return _library
    with _lock:
        if _library is None:
            import ctypes

            compiler, path = _library_path()
            # a library anyone else can replace would run their code here
            path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.parent.stat()
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                raise ReplayKernelError(
                    f"refusing to use {path.parent}: it must be owned by this "
                    f"user and not writable by group or others")
            if not path.exists():
                _build(compiler, path)
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            signatures = {
                "run_program": ([ptr, i64, i64, ptr, i64, ptr, i64, i64, i64, ptr, ptr,
                                 ptr], i64),
                "group_sets": ([i64, ptr, ptr, ptr, i64, i64, i64, ptr], i64),
                "replay_cold": ([i64, i64, ptr, ptr], i64),
            }
            try:
                library = ctypes.CDLL(str(path))
                for name, (argtypes, restype) in signatures.items():
                    function = getattr(library, name)
                    function.argtypes = argtypes
                    function.restype = restype
            except (OSError, AttributeError) as exc:
                raise ReplayKernelError(
                    f"cannot load the functional simulator and cache replay "
                    f"library from {path} ({exc}); delete the file to rebuild it") from exc
            _library = library
    return _library


def _address(array: np.ndarray, shape: tuple, name: str, writeable=False,
             dtype=np.int64) -> int:
    """Base address of a C-contiguous ``dtype`` array of ``shape`` (else raise)."""
    if (not isinstance(array, np.ndarray) or array.dtype != dtype
            or array.shape != shape or not array.flags.c_contiguous
            or (writeable and not array.flags.writeable)):
        raise ReplayKernelError(
            f"{name} must be a {'writeable ' if writeable else ''}C-contiguous "
            f"{np.dtype(dtype)} array of shape {shape}, got "
            f"{getattr(array, 'dtype', None)} {getattr(array, 'shape', None)}")
    return array.ctypes.data


class Run(NamedTuple):
    """How a :func:`run_program` run ended, and what it recorded."""

    status: int                     #: a ``RUN_*`` code: HALT, BUDGET, FAULT, MEMORY or UNDERFLOW
    state: Dict[str, int]           #: the final state vector, by :data:`RUN_STATE` name
    registers: np.ndarray           #: the uint32 register slots in use
    trace: Dict[str, np.ndarray]    #: the :data:`TRACE_COLUMNS`, by name
    class_counts: np.ndarray        #: executed instructions per class code (int64)


def _column_bounds() -> Tuple[np.ndarray, np.ndarray]:
    """Lowest and highest value of each :data:`RUN_COLUMNS` entry the loop runs safely.

    A register mask is 0 or -1; IMM is any value; a taken branch counts
    its class plus one, which must stay below :data:`_CLASS_CODES`.
    TARGET's highest row depends on the table: :func:`run_program` sets it.
    """
    word, wide = (1 << 32) - 1, (1 << 63) - 1
    bounds = {"OP": (0, len(OPCODES) - 1), "RD": (0, 31), "RS1": (0, 31), "RS2": (-1, 31),
              "RD_MASK": (-1, 0), "RS1_MASK": (-1, 0), "RS2_MASK": (-1, 0),
              "IMM": (-wide - 1, wide), "DIVISOR": (-(1 << 40), 1 << 40),
              "TARGET": (0, 0), "COND": (-1, 0xFFFF), "CLASS": (0, _CLASS_CODES - 2),
              "LOADS": (0, word), "READS": (0, word), "SETS_ICC": (0, 1), "WINDOW": (-1, 1)}
    low, high = zip(*(bounds[name] for name in RUN_COLUMNS))
    return np.array(low, dtype=np.int64), np.array(high, dtype=np.int64)


_LOW, _HIGH = _column_bounds()
_OP, _TARGET = RUN_COLUMNS.index("OP"), RUN_COLUMNS.index("TARGET")


def run_program(code: np.ndarray, text_rows: int, entry: int, text_base: int, memory,
                registers: np.ndarray, budget: int) -> Run:
    """Run a decoded program from row ``entry`` to HALT or its first fault.

    ``code`` holds one :data:`RUN_COLUMNS` row per instruction of the
    text segment, then at least the two FAULT rows the C source names,
    then one per static target outside the text.  ``memory`` is the
    writeable buffer of the program's memory image (exported only while
    the loop runs) and ``registers`` the initial uint32 register slots
    (at least the globals and window 0).  The register file and the
    trace columns start small and double whenever the loop stops for
    room, so they grow with what was executed, never with ``budget``.
    """
    rows = code.shape[0] if code.ndim == 2 else -1
    table = _address(code, (rows, len(RUN_COLUMNS)), "program")
    high = _HIGH.copy()
    high[_TARGET] = rows - 1
    if (text_rows < 0 or rows < text_rows + 2 or not 0 <= entry < rows
            or (code < _LOW).any() or (code > high).any()
            or (code[text_rows:, _OP] != OPCODES.index("FAULT")).any()):
        raise ReplayKernelError(f"program rows out of range for {text_rows} instructions")
    if len(registers) < 32:
        raise ReplayKernelError(f"need at least 32 register slots, got {len(registers)}")
    slots = np.zeros(max(_FIRST_REGISTERS, len(registers)), dtype=np.uint32)
    slots[:len(registers)] = registers
    state = np.zeros(len(RUN_STATE), dtype=np.int64)
    state[RUN_STATE.index("ROW")] = entry
    state[RUN_STATE.index("USED")] = len(registers)
    class_counts = np.zeros(_CLASS_CODES, dtype=np.int64)
    library = _load()
    capacity = _FIRST_OUTPUTS
    columns = [np.empty(capacity, dtype=dtype) for _, dtype in TRACE_COLUMNS]
    image = np.frombuffer(memory, dtype=np.uint8)
    try:
        image_address = _address(image, image.shape, "memory", True, np.uint8)
        while True:
            addresses = np.array([column.ctypes.data for column in columns], dtype=np.uintp)
            status = library.run_program(
                table, text_rows, text_base, image_address, len(image), slots.ctypes.data,
                len(slots), min(budget, 1 << 62), capacity, addresses.ctypes.data,
                class_counts.ctypes.data, state.ctypes.data)
            if status == RUN_FULL:
                capacity *= 2
                grown = [np.empty(capacity, dtype=column.dtype) for column in columns]
                for column, bigger in zip(columns, grown):
                    bigger[:len(column)] = column
                columns = grown
            elif status == RUN_REGISTERS:
                slots = np.concatenate([slots, np.zeros_like(slots)])
            else:
                break
    finally:
        del image  # release the buffer export: the caller may close the buffer
    final = dict(zip(RUN_STATE, state.tolist()))
    lengths = {"window_events": final["EVENTS"], "data_addresses": final["ACCESSES"],
               "data_is_write": final["ACCESSES"]}
    trace = {name: column[:lengths.get(name, final["EXECUTED"])]
             for (name, _), column in zip(TRACE_COLUMNS, columns)}
    return Run(status, final, slots[:final["USED"]], trace, class_counts)


def _power_of_two(value: int, name: str) -> int:
    """``log2(value)`` of a power of two in ``[1, 2**62]`` (else raise)."""
    if value < 1 or value & (value - 1) or value > 1 << 62:
        raise ReplayKernelError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


def _view_address(view: np.ndarray) -> Tuple[int, int]:
    """``(address, chains)`` of a ``(4, chains)`` int64 set view (else raise)."""
    chains = view.shape[1] if isinstance(view, np.ndarray) and view.ndim == 2 else -1
    return _address(view, (4, chains), "set view"), chains


def _victims_address(victims: np.ndarray) -> Tuple[int, int]:
    """``(address, length)`` of a RANDOM victim stream (else raise)."""
    size = len(victims) if isinstance(victims, np.ndarray) else 0
    return _address(victims, (size,), "victims"), size


def _chains(out: np.ndarray, chains: int) -> np.ndarray:
    """A copy of the ``(4, chains)`` rows ``group_sets`` packed at the front of ``out``."""
    if chains == -2:
        raise ReplayKernelError("a set view's lines must be non-negative")
    if chains < 0:
        raise MemoryError("no memory to group a set view")
    # cheaper than shrinking out in place, which remaps a large buffer
    return out[:4 * chains].reshape(4, chains).copy()


def decode_view(addresses: np.ndarray, writes: Optional[np.ndarray], linesize: int,
                sets: int) -> np.ndarray:
    """The set view at ``sets`` sets of a ``uint32`` address trace.

    ``writes`` is a bool mask or ``None`` (all reads); ``linesize`` and
    ``sets`` are powers of two.
    """
    n = len(addresses)
    first = _address(addresses, (n,), "addresses", dtype=np.uint32)
    mask = None if writes is None else _address(writes, (n,), "writes", dtype=np.bool_)
    shift = _power_of_two(linesize, "line size")
    _power_of_two(sets, "sets")
    out = np.empty(4 * n, dtype=np.int64)
    return _chains(out, _load().group_sets(n, None, first, mask, shift, n, sets - 1,
                                           out.ctypes.data))


def derive_view(view: np.ndarray, accesses: int, sets: int) -> np.ndarray:
    """The set view at ``sets`` sets of a view at a divisor of ``sets``."""
    address, chains = _view_address(view)
    _power_of_two(sets, "sets")
    out = np.empty(4 * chains, dtype=np.int64)
    return _chains(out, _load().group_sets(chains, address, None, None, 0, accesses,
                                           sets - 1, out.ctypes.data))


def replay_cold(accesses: int, geometries: Sequence[
        Tuple[np.ndarray, int, int, int, Optional[np.ndarray]]]) -> List[List[int]]:
    """Cold replays of one trace, one per ``(view, sets, ways, policy, victims)``.

    ``view`` is the trace's set view at ``sets`` sets; each replay starts
    from an empty cache whose state C allocates and discards.
    ``victims`` is the RANDOM stream (at least one per access) of a
    RANDOM geometry with more than one way, else ``None``.  Returns
    ``[read, write]`` misses per geometry, in order.
    """
    # each distinct view and victim stream is checked once: (address, length) by id
    views = {id(g[0]): _view_address(g[0]) for g in geometries}
    streams = {id(g[4]): _victims_address(g[4]) for g in geometries
               if g[3] == POLICY_RANDOM and g[2] > 1}
    rows = []
    for view, sets, ways, policy, victims in geometries:
        # at most 2**32 lines, so no size C computes from a geometry overflows
        if (sets < 1 or sets & (sets - 1) or ways < 1 or sets * ways > 1 << 32
                or policy not in (POLICY_LRU, POLICY_LRR, POLICY_RANDOM)):
            raise ReplayKernelError(
                f"bad geometry: {sets} sets, {ways} ways, policy {policy}")
        victim_address, size = (streams[id(victims)] if policy == POLICY_RANDOM and ways > 1
                                else (0, accesses))
        if size < accesses:
            raise ReplayKernelError(f"victims must hold one per access ({accesses}), got {size}")
        rows.append((*views[id(view)], sets, ways, policy, victim_address))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
    misses = np.empty((len(rows), 2), dtype=np.int64)
    if _load().replay_cold(accesses, len(rows), table.ctypes.data, misses.ctypes.data) < 0:
        raise MemoryError("no memory for the cache states")
    return misses.tolist()
