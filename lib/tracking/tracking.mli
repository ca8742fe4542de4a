(** Pluggable taint-tracking backends.

    Every taint touch-point in the simulator goes through this module:
    which events mark taint sources, which propagate tags, which
    evaluate security checks, and what each costs in simulated cycles.
    A {!Backend.t} selects one of three architectures per session (see
    {!Backend} for the design-space story).

    {2 Contract}

    The static side of the contract is {!S}: a backend declares whether
    it needs the per-retired-instruction hook ([per_instr]), whether
    input syscalls taint their buffers ([sources]) and whether policies
    are evaluated at all ([checks]).  {!profile} maps a backend to its
    profile; {!create} bakes the profile into a runtime handle.  Both
    execution engines run under every backend: the superblock compiler
    binds the per-instruction hook into its compiled blocks.

    The [nat] backend sets [per_instr = false]: SHIFT's propagation is
    performed by the guest's own NaT semantics and instrumentation, so
    the handle is inert and the hot loop pays a single never-taken
    branch.  The [none] backend additionally turns [sources] and
    [checks] off.  Counters under [nat] are bit-identical to the
    repository before backends existed.

    {2 The coproc lag model}

    The [coproc] backend models a decoupled tag coprocessor with an
    asynchronous tag queue (Wahab et al., PAGURUS — see PAPERS.md).
    The main core runs the {e uninstrumented} guest; for each retired
    instruction the machine layer mirrors its taint semantics into one
    or two records ({!push_set} … {!push_check}) on a bounded FIFO,
    tagging each with the current retired-instruction count.  The
    interpreter does this in [Cpu.track_op]; the superblock compiler
    binds the same pushes, with their record kinds and operand
    registers, into each compiled slot, so both engines produce the
    same queue.  The FIFO is a ring of unboxed slots: pushing and
    draining register records allocates nothing (a draining Load or
    Store reads the bitmap through {!Shift_mem.Taint}).  Each
    retirement {!tick}s the
    coprocessor, which drains up to [drain_rate] records, applying them
    in program order against its private register tag file and the
    byte-granularity memory bitmap.  A {!check} record evaluates when
    it {e drains}, not when the instruction retired: its drain lag
    (retired-count now minus retired-count at enqueue) is the detection
    lag, bounded by [capacity] because a full queue force-drains —
    charging [stall_penalty] simulated cycles to the core
    ({!take_stall} hands the accumulated stall to the pipeline).
    Syscalls are synchronisation barriers: the machine layer
    {!flush}es the queue before the OS model runs, so high-level (H1–H5)
    sink checks never race the queue. *)

module type S = sig
  val backend : Backend.t

  val per_instr : bool
  (** The backend needs a hook on every retired instruction. *)

  val sources : bool
  (** Input syscalls mark their buffers tainted. *)

  val checks : bool
  (** Security policies (low-level and high-level) are evaluated. *)
end

module Nat : S
module Coproc : S
module Off : S

val profile : Backend.t -> (module S)

(** {2 Tag-queue records} *)

type check = Load_address | Store_address | Branch_target | Call_target
(** The low-level (L1–L3) check points, mirroring
    {!Shift_machine.Fault.nat_use}. *)

val check_to_string : check -> string
(** The exact strings {!Shift_policy.Policy.alert_of_fault} maps to
    L1/L2/L3 alerts. *)

val check_of_string : string -> check option

type record =
  | Set of { dst : int; tainted : bool }  (** constant / clear idiom *)
  | Move of { dst : int; src : int }
  | Union of { dst : int; s1 : int; s2 : int }
      (** [s2 = Reg.zero] (always clean) when the second operand is an
          immediate *)
  | Load of { dst : int; addr : int64; len : int }
  | Store of { addr : int64; len : int; src : int }
  | Check of { what : check; reg : int }
(** One tag-queue record, as exchanged with the outside: {!export} and
    {!import}, the snapshot codec and tests.  The queue itself stores
    records unboxed. *)

(** {2 Runtime handle} *)

type t
(** One tracking backend instance.  Shared by every hart of an SMP
    machine and by the OS model: there is one coprocessor (and one tag
    queue) per session, as in the hardware designs. *)

type stats = {
  mutable enqueued : int;
  mutable drained : int;
  mutable stalls : int;  (** pushes that found the queue full *)
  mutable stall_cycles : int;  (** simulated cycles charged for those *)
  mutable checks : int;  (** check records evaluated at drain *)
  mutable alerts : int;
  mutable max_lag : int;  (** worst drain lag seen, in instructions *)
  mutable last_alert_lag : int;
}
(** Host-side diagnostics.  Not part of simulated state: never
    snapshotted, reset on restore (the dump carries everything that
    feeds back into simulation — the queue, the tag file, the retired
    count and the not-yet-charged stall). *)

val default_capacity : int
val default_drain_rate : int
val default_stall_penalty : int

val create :
  ?low_level:bool ->
  ?capacity:int ->
  ?drain_rate:int ->
  ?stall_penalty:int ->
  ?mem:Shift_mem.Memory.t ->
  backend:Backend.t ->
  unit ->
  t
(** [low_level] gates the L1–L3 check records (mirrors
    [Policy.t.low_level]); [mem] binds the guest memory whose
    byte-granularity bitmap the coprocessor reads and writes — required
    before any [Load]/[Store] record drains. *)

val default : t
(** An inert [nat] handle — what a freshly created machine carries
    before a session installs its own. *)

val backend : t -> Backend.t
val per_instr : t -> bool
val sources_on : t -> bool
val checks_on : t -> bool

val low_level_checks : t -> bool
(** [checks_on t && low_level] — whether the machine layer should emit
    [Check] records. *)

val capacity : t -> int
val stats : t -> stats
val queue_length : t -> int

val reg_tag : t -> int -> bool
(** The coprocessor's current tag for a register ([false] on
    non-[per_instr] backends). *)

val tick : t -> unit
(** One instruction retired: advance the lag clock and drain up to
    [drain_rate] records.  May raise {!Shift_policy.Alert.Violation}
    when a draining check finds a tainted tag. *)

(** {3 Enqueueing}

    Each push enqueues one record; on a full queue it first force-drains
    one record and accrues [stall_penalty] cycles, so it may raise
    {!Shift_policy.Alert.Violation} from the forced drain.  The typed
    pushes are the machine layer's allocation-free hot path; {!push}
    takes a {!record} and is equivalent. *)

val push_set : t -> dst:int -> tainted:bool -> unit
val push_move : t -> dst:int -> src:int -> unit
val push_union : t -> dst:int -> s1:int -> s2:int -> unit
val push_load : t -> dst:int -> addr:int64 -> len:int -> unit
val push_store : t -> addr:int64 -> len:int -> src:int -> unit
val push_check : t -> check -> reg:int -> unit
val push : t -> record -> unit

val flush : t -> unit
(** Drain the whole queue (syscall barrier, end of run).  May raise
    {!Shift_policy.Alert.Violation}. *)

val take_stall : t -> int
(** Simulated stall cycles accrued since the last call; the caller
    charges them to the pipeline.  Resets to zero. *)

(** {2 Snapshot support} *)

type dump = {
  d_regs : bool array;
  d_queue : (record * int) list;
  d_retired : int;
  d_pending_stall : int;
}

val export : t -> dump

val import : t -> dump -> unit
(** Raises [Invalid_argument] when the dump's tag file does not match
    the handle's or its queue holds more than [capacity t] records. *)
