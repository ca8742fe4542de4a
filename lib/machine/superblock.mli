(** Superblock compilation of the guest hot loop.

    Hot single-entry, straight-line regions of the guest program are
    compiled into chains of pre-resolved OCaml closures and executed
    block-to-block without touching the generic decode/dispatch
    interpreter.  Per-entry-pc execution counters discover hot code;
    regions are cut at the first control transfer ([br], [br.reg],
    [call], [call.reg], [ret], [chk.s], [syscall], [halt]), at program
    end, or at 64 instructions.

    The invariant is {e counter identity}: with superblocks on, every
    piece of simulated state — {!Stats.t}, pipeline cycles, cache
    state, taint bits, Flowtrace ring and counters, alerts, snapshots —
    is byte-identical to a pure-interpreter run.  The compiler only
    drops host-side work whose absence is unobservable (decode dispatch,
    provably-true predicate reads, NaT reads of immediates, disabled
    flow-trace hooks), and the driver enters a compiled block only when
    the remaining fuel covers its whole length, so slice boundaries,
    checkpoints and serve migration stay instruction-exact.

    Blocks belong to the program's {!Cpu.code}, which every machine
    running one image shares: a restored session, forked children, SMP
    harts and sessions started from the image run each other's blocks,
    so an in-memory migration resumes warm.  They are never
    snapshotted.  Tables are keyed by the [flowtrace.enabled] flag and
    the tracking backend's profile; a block captures no machine,
    memory or tracking handle.  Guest stores into the watched code
    region (region 2) give the writing machine a private copy of its
    table and invalidate, there, every block covering a written
    instruction slot.  Under a per-instruction tracking backend
    ([coproc]) every compiled slot ticks the machine's tag coprocessor
    and pushes the records {!Cpu.track_op} would, in {!Cpu.step}'s
    order. *)

val code_addr : int -> int64
(** [code_addr pc] is the address of instruction slot [pc]: 8 bytes per
    slot in the synthetic code region.  Guest stores inside a slot's
    bytes invalidate every compiled block covering it. *)

val usable : Cpu.t -> bool
(** Whether the compiled fast path may run on this machine: superblocks
    enabled.  Every tracking backend qualifies — under [coproc] the
    per-instruction tag mirror is compiled into the blocks. *)

val stats : Cpu.t -> Stats.superblocks
(** The machine's host-side superblock counters (never part of
    simulated state). *)

val steps : Cpu.t -> limit:int -> int * Cpu.outcome option
(** Run up to [limit] instructions through the block cache, falling
    back to interpretation per instruction when the machine is not
    {!usable}, a region is cold, or the remaining budget cannot cover a
    whole compiled block.  Returns the instructions actually retired
    (exact — engine slicing depends on it) and the terminal outcome, if
    any.  Cycle-count finalisation on the non-terminal path is the
    caller's job, as with {!Cpu.step}. *)

val run_for : Cpu.t -> budget:int -> Cpu.status
(** Drop-in replacement for {!Cpu.run_for} with the compiled fast path;
    delegates to it entirely when the machine is not {!usable}. *)
