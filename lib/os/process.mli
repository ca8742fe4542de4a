(** The process table.

    Grows the OS personality from one address space to many: each
    process owns a CPU, a private memory (and with it the taint
    bitmap), a private Flowtrace provenance shadow, and a {!World}
    kernel context (descriptor table, heap break, comm name).

    - [fork] deep-copies all four, so the child's taint and provenance
      are exactly the parent's at the fork point, and inherits the
      descriptor table (shared stream offsets and pipe ends, as on
      Unix).
    - [exec] replaces the CPU, address space and provenance shadow
      with a freshly loaded image while the kernel context survives;
      the sampled argv bytes — with their taint and provenance — are
      the only data that crosses, re-entering via [sys_getarg].
    - [wait] reaps finished children and folds their counters into the
      machine's retired counters.

    The processes are the tasks of a {!Shift_machine.Sched.Time_shared}
    machine, whose round robin — resumable mid-quantum at any budget
    boundary, so multi-process runs stay deterministic under request
    multiplexing ([shiftc serve]) and checkpointing — is the one SMP
    harts use.  Pid 1 is the primary; a finished process stays on the
    machine as a zombie until its parent reaps it.  The table rides
    the machine as its {!Shift_machine.Sched.owner}, so a checkpoint
    finds it with {!table}. *)

module Cpu = Shift_machine.Cpu
module Sched = Shift_machine.Sched
module Provenance = Shift_mem.Provenance

type t
(** A process table: pids, parents, exec'd image names, kernel contexts
    and provenance shadows beside the machine's tasks. *)

val create :
  ?quantum:int ->
  ?comm:string ->
  world:World.t ->
  load:(comm:string -> Cpu.t option) ->
  Cpu.t ->
  Sched.t
(** A one-process machine (pid 1 runs [cpu] in the world's base
    context, named [comm], default ["main"]) with the world's
    fork/exec/wait syscalls wired to it.  [load] materialises a fresh
    CPU for an exec'd program name ([None] = not found, exec returns
    -1); the default [quantum] is 50 instructions, as for SMP.
    @raise Invalid_argument if [quantum <= 0]. *)

val table : Sched.t -> t option
(** The process table behind a machine, [None] for any other machine. *)

(** {1 Checkpoint/restore} *)

(** One process table entry as plain(ish) data; [p_image] is the name
    the process exec'd, [None] while it still runs the main image. *)
type part = {
  p_pid : int;
  p_parent : int;
  p_image : string option;
  p_state : Sched.state;
  p_cpu : Cpu.t;
  p_ctx : World.ctx;
  p_pmap : Provenance.t;
}

val parts : t -> part list
(** Every live table entry, in pid order. *)

val next_pid : t -> int

val of_parts :
  quantum:int ->
  world:World.t ->
  load:(comm:string -> Cpu.t option) ->
  procs:part list ->
  next_pid:int ->
  round:(int * int) list ->
  finished:Cpu.outcome option ->
  retired:Shift_machine.Stats.t ->
  unit ->
  Sched.t
(** Rebuild a machine from snapshotted parts and wire the world's
    process syscalls to it.
    @raise Invalid_argument unless {!Sched.check} accepts the parts
    (pid 1 first, pids in order, the round naming known pids). *)
