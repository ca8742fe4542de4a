(** The resumable execution engine: one suspend/resume interface over
    both machine shapes, a single CPU and a {!Sched} round robin (SMP
    harts or OS processes).

    Every run loop in the system — single-hart runs, the scheduled
    machines, the session layer, batch fleets, the CLI — drives a machine
    through this module's {!run_for}, which executes a bounded number
    of instructions and suspends at an instruction-group boundary.
    Suspension touches no machine state, so the instruction stream, and
    with it every {!Stats} counter, is byte-identical however a run is
    sliced into budgets; cycle accounting is preserved by construction
    because the pipeline model only ever sees the same issue sequence.

    This is the substrate for request-level multiplexing and
    checkpointing: a host can interleave many guests by rotating
    [run_for] slices across their engines. *)

(** The machine shapes an engine can drive. *)
type machine =
  | Cpu of Cpu.t  (** a single hart *)
  | Sched of Sched.t
      (** a deterministic round robin: SMP harts over shared memory
          ({!Smp}) or a process table ([Shift_os.Process]) *)

type t
(** An engine instance: a machine plus its memoised terminal outcome. *)

val of_cpu : Cpu.t -> t
(** Drive a single-hart machine. *)

val of_sched : Sched.t -> t
(** Drive a scheduled machine (the primary task's outcome terminates
    the run). *)

val machine : t -> machine
(** The underlying machine. *)

val hart0 : t -> Cpu.t
(** The primary hart: the CPU itself, or the primary task (hart 0,
    pid 1) of a scheduled machine. *)

val stats : t -> Stats.t
(** The run's counters: the CPU's own (live, shared) for a single hart;
    a fresh aggregate for a scheduled machine, combined as its
    {!Sched.shape} says. *)

val superblock_stats : t -> Stats.superblocks
(** A fresh aggregate of the host-side superblock counters across all
    tasks (see {!Stats.superblocks}: never part of simulated state). *)

val cache_stats : t -> int * int
(** L1D [(hits, misses)] summed across all tasks on the machine (a
    reaped process takes its cache counters with it).  The counters are
    simulated state (they ride {!Cache.snap} through checkpoints), so
    unlike {!superblock_stats} they are deterministic per run. *)

val finished : t -> Cpu.outcome option
(** The memoised terminal outcome, once a {!run_for} call returned
    [`Finished]. *)

val run_for : t -> budget:int -> Cpu.status
(** Execute at most [budget] instructions and suspend.  Resume by
    calling again; once finished, the memoised outcome is returned
    without stepping the machine further.  A non-positive budget yields
    immediately. *)

val run : ?fuel:int -> t -> Cpu.outcome
(** Run to completion or fuel exhaustion (default 2e9): one {!run_for}
    slice, with [`Yielded] surfaced as {!Cpu.Out_of_fuel}. *)
