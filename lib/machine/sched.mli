(** The deterministic round-robin scheduler behind every multi-task
    machine: SMP harts ({!Smp}, the paper's future-work threads, §4.4
    and §8) and OS processes ([Shift_os.Process], the §1 daemon that
    forks and execs a shell).

    Each task is a CPU with an id; the first task is the {e primary}
    (hart 0, pid 1) and its outcome ends the run.  Tasks take turns of
    [quantum] instructions in id order; instructions never interleave
    mid-operation, so [fetchadd] is atomic and guest ticket locks work.
    The round is resumable: an external budget can suspend it
    mid-quantum, and the suspended task resumes with the rest of its
    quantum, so the interleaving — and with it every counter — is
    byte-identical however a run is sliced into budgets.

    What tells the two machines apart is their {!shape}, which fixes
    how counters combine, and two hooks through which the builder sees
    the schedule: a task is entered, and a task left the runnable
    state. *)

(** Lifecycle of one task. *)
type state =
  | Running  (** scheduled; has not finished yet *)
  | Done of int64  (** returned (or halted) with this value *)
  | Crashed of Fault.t * int
      (** faulted; the [int] is the faulting instruction's address *)

(** How the tasks share the simulated hardware. *)
type shape =
  | Concurrent
      (** harts on cores of their own: {!stats} is {!Stats.concurrent}
          (events sum, [cycles] is the slowest hart's) *)
  | Time_shared
      (** processes multiplexed on one core: {!stats} is {!Stats.total}
          over the live tasks and every retired CPU *)

type task = private {
  id : int;
  mutable cpu : Cpu.t;  (** replaced by {!exec} *)
  mutable state : state;
}

type owner = ..
(** What the machine's builder keeps beside the schedule (a process
    table extends this with its pids, kernel contexts and shadows), so
    it can be found again from the machine alone. *)

type t

val create :
  shape:shape ->
  ?quantum:int ->
  primary:int ->
  ?enter:(task -> unit) ->
  ?left:(task -> unit) ->
  ?owner:owner ->
  Cpu.t ->
  t
(** A machine whose only task, the primary, runs [cpu] under id
    [primary].  [quantum] (default 50) is how many instructions a task
    runs before the next takes over.  [enter] runs before each turn a
    task is given; [left] runs once when a task stops being runnable
    (exits, returns from its entry function, or faults).
    @raise Invalid_argument if [quantum <= 0]. *)

val spawn : t -> id:int -> Cpu.t -> task
(** Add a runnable task; it enters the schedule at the next round.
    [id] must exceed every id on the machine. *)

val remove : t -> task -> unit
(** Take a task off the machine (a reaped process), folding its
    counters into {!retired}. *)

val exec : t -> task -> Cpu.t -> 'a
(** The exec turn-over: [task] continues on [cpu], a freshly loaded
    image.  Call from inside the running task's syscall handler; the
    call raises to unwind the replaced image's in-flight superblock.
    The scheduler then charges the task its full allowance, ends its
    turn, and folds the replaced CPU's counters into {!retired}, so
    the interleaving does not depend on where a budget boundary fell
    relative to the exec. *)

val run_for : t -> budget:int -> Cpu.status
(** Run the round robin for at most [budget] instructions (summed over
    all tasks) and suspend.  Returns [`Finished] with the primary's
    outcome once it is done (further calls return the same outcome
    without stepping).  A secondary task that returns from its entry
    function finishes normally with the value in the return register.
    Per-task cycle counters are finalised on every return, including
    when a syscall handler raises.  A non-positive budget yields
    immediately. *)

val stats : t -> Stats.t
(** Fresh aggregate counters, combined as the {!shape} says. *)

val tasks : t -> task list
(** Every task on the machine in id order, the primary first —
    finished and crashed ones included until they are removed. *)

val find : t -> int -> task option
(** The task with this id, while it is on the machine. *)

val primary : t -> task
(** The primary task (hart 0, pid 1). *)

val owner : t -> owner option
(** What the builder hung on the machine when it made it. *)

(** {1 Checkpoint/restore}

    The schedule as plain data, so a machine can be serialised
    mid-round and rebuilt in a fresh process.  CPUs are exported by
    reference; serialising their contents is the caller's job. *)

val quantum : t -> int

val round : t -> (int * int) list
(** The tail of the current round as [(task id, remaining quantum)]
    pairs — the head may be mid-quantum. *)

val finished : t -> Cpu.outcome option

val retired : t -> Stats.t
(** Counters of CPUs no longer on the machine: removed tasks and
    images replaced by {!exec}. *)

val check :
  quantum:int ->
  primary:int ->
  ids:int list ->
  round:(int * int) list ->
  (unit, [ `Quantum | `Tasks | `Round ] * string) result
(** Whether parts describe a machine: a positive quantum; task ids
    increasing from [primary]; round entries naming tasks on the
    machine with between 1 and [quantum] instructions left.  [Error]
    names the offending part and says what is wrong with it. *)

val of_parts :
  shape:shape ->
  quantum:int ->
  primary:int ->
  ?enter:(task -> unit) ->
  ?left:(task -> unit) ->
  ?owner:owner ->
  tasks:(int * state * Cpu.t) list ->
  round:(int * int) list ->
  finished:Cpu.outcome option ->
  retired:Stats.t ->
  unit ->
  t
(** Rebuild a machine from exported parts.
    @raise Invalid_argument unless {!check} accepts them. *)
