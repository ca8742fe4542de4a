(** Multi-hart execution over shared memory — the paper's future-work
    item ("extend SHIFT for multi-threaded applications", §4.4 and §8).

    Harts share the memory image (and with it the taint bitmap) but have
    private register files, pipelines and caches.  They are the tasks of
    a {!Sched.Concurrent} machine: hart 0 is the primary, and the
    deterministic round robin with its configurable quantum is
    {!Sched}'s.  This module adds what is particular to threads:
    spawning a hart on the parent's memory, and the state [join] reads.

    This layer is exactly where the paper's §4.4 caveat lives: the
    instrumentation's bitmap read-modify-write sequences are {e not}
    serialised, so two harts updating tag bits that share a bitmap byte
    can lose an update (see test/test_smp.ml, which demonstrates the
    race the paper cites). *)

val create : ?quantum:int -> Cpu.t -> Sched.t
(** Wrap an initialised machine as hart 0.  [quantum] (default 50) is
    how many instructions a hart runs before the next takes over.
    @raise Invalid_argument if [quantum <= 0]. *)

val spawn :
  Sched.t ->
  stack_top:int64 ->
  stack_stride:int64 ->
  parent:Cpu.t ->
  entry:int64 ->
  arg:int64 ->
  int
(** Start a new hart at code address [entry] with [arg] in the first
    argument register, and return its id.  The register file is copied
    from [parent] (so the reserved instrumentation registers are
    inherited), then the stack pointer is rebased to
    [stack_top - id * stack_stride]. *)

val join : Sched.t -> int -> int64 option
(** What [sys_join] sees of a hart: [None] while it runs, its result
    once it is done, [-1] if it crashed or does not exist. *)

val of_parts :
  quantum:int ->
  harts:(int * Sched.state * Cpu.t) list ->
  round:(int * int) list ->
  finished:Cpu.outcome option ->
  unit ->
  Sched.t
(** Rebuild a machine from exported parts ({!Sched.check}: hart 0
    first, ids in order, the round naming known harts).
    @raise Invalid_argument otherwise. *)
