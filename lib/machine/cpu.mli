(** The CPU simulator: functional semantics plus pipeline timing.

    Implements the deferred-exception lifecycle SHIFT builds on
    (paper §2.2):

    - every general register carries a NaT bit;
    - NaT bits propagate OR-wise through computation;
    - a speculative load from an invalid address sets the target's NaT
      bit instead of faulting;
    - [chk.s] redirects to recovery code when it meets a NaT bit;
    - consuming a NaT bit in a memory address, a stored value (non-spill)
      or a control-transfer target raises a NaT-consumption fault — the
      hardware half of policies L1-L3;
    - [st.spill]/[ld.fill] round-trip the NaT bit through UNAT, and UNAT
      is preserved across calls (as the Itanium ABI does);
    - compares with a NaT source clear both target predicates unless the
      compare is the §6.3 taint-aware variant. *)

type t = {
  program : Shift_isa.Program.t;
  decoded : Decode.t;  (** per-instruction fast-path records, see {!Decode} *)
  code : code;
      (** the program's shared code; [program] and [decoded] alias its
          fields for the interpreter's hot loop *)
  mem : Shift_mem.Memory.t;
  values : int64 array;
  nats : bool array;
  preds : bool array;
  mutable unat : int64;
  mutable ip : int;
  stats : Stats.t;
  pipe : Pipeline.t;
  cache : Cache.t;
  mutable syscall_handler : (t -> unit) option;
  mutable flowtrace : Flowtrace.t;
      (** Taint-provenance trace; {!Flowtrace.disabled} by default. *)
  ftregs : Flowtrace.regs;  (** this hart's register provenance shadow *)
  mutable hwtrace : Hwtrace.t;
      (** Cache-set observation trace; {!Hwtrace.disabled} by default.
          When live, every cache access recorded via {!touch_cache}
          appends an entry — from either execution engine. *)
  call_stack : (int * int64) Stack.t;
  sb : sb;  (** this machine's superblock state; never snapshotted *)
  mutable tracking : Shift_tracking.Tracking.t;
      (** Taint-tracking backend handle ({!Shift_tracking.Tracking.default}
          — an inert [nat] handle — until a session installs its own).
          Under the [coproc] backend the hot loop mirrors each retiring
          instruction into a tag-queue record; under [nat]/[none] the
          hook is a single never-taken branch.  SMP harts share one
          handle (one coprocessor per machine).  Compiled blocks read it
          from here at run time, so they bind no session. *)
}

(** A program's code: the decoded program and the superblock block
    tables, built once per image ([Image.code]) and shared by every
    machine that runs it — a restored session, forked children, SMP
    harts, sessions started from one image — across pool domains.
    Blocks are keyed by the Flowtrace flag and the tracking backend's
    profile ({!Shift_tracking.Tracking.per_instr},
    {!Shift_tracking.Tracking.low_level_checks}) and refer to no machine,
    memory or tracking handle, so the code lives exactly as long as its
    image and the machines running it.  Tables are published under
    [code_lock]: two machines may compile one block, the first
    publication wins, and a lock-free reader sees either no block or a
    whole one. *)
and code = {
  code_program : Shift_isa.Program.t;
  code_decoded : Decode.t;
  code_tables : sb_block option array array;
      (** one table per block key, indexed by entry pc; [[||]] until a
          machine first dispatches under that key *)
  code_lock : Mutex.t;
}

(** A machine's superblock state (driven by {!Superblock}): heat
    counters, host-side counters and the table it dispatches through.
    It is derived: snapshots skip it, and a restored machine picks up
    its image's warm tables with byte-identical simulated counters. *)
and sb = {
  mutable sb_on : bool;
      (** master switch ([Session.Config.superblocks] lands here) *)
  sb_hot : int array;  (** per-entry-pc execution counts *)
  mutable sb_blocks : sb_block option array;
      (** the table for [sb_key]: the code's shared one, or a private
          copy once this machine's guest wrote its code region *)
  mutable sb_key : int;
      (** block key [sb_blocks] serves; [-1] until the machine first
          enters the block driver, which registers its code-region
          watch *)
  mutable sb_private : bool;  (** [sb_blocks] is this machine's own copy *)
  sb_stats : Stats.superblocks;
}

(** One compiled superblock: a single-entry straight-line region ending
    at the first control transfer (or the length cap), with operands,
    predicates and trace hooks resolved at compile time. *)
and sb_block = {
  sb_entry : int;
  sb_len : int;
  sb_ft : bool;  (** flowtrace.enabled value the body was specialised for *)
  sb_provs : int array;
  sb_prov_counts : int array;
  sb_body : t -> unit;
}

type outcome =
  | Exited of int64            (** [halt] reached; exit status from r8 *)
  | Faulted of Fault.t * int   (** fault and the faulting instruction index *)
  | Out_of_fuel                (** fuel exhausted before termination *)

exception Exit_requested of int64
(** A syscall handler raises this to terminate the program (exit(2)). *)

exception Fault_exn of Fault.t
(** Internal control flow for faults; {!step} converts it to
    {!Faulted}.  Exposed for {!Superblock}, whose compiled bodies must
    raise and observe exactly what the interpreter does. *)

exception Halt_exn of int64
(** Internal control flow for [halt]; {!step} converts it to {!Exited}. *)

val code_of_program : Shift_isa.Program.t -> code
(** Decode a program into fresh code with empty block tables. *)

val of_code : ?entry:string -> ?mem:Shift_mem.Memory.t -> code -> t
(** Fresh machine running [code], with zeroed registers and [ip] at
    [entry] (default ["_start"], or instruction 0 if absent).  [mem]
    shares an existing memory (SMP harts); by default the machine gets
    its own. *)

val create : ?entry:string -> ?mem:Shift_mem.Memory.t -> Shift_isa.Program.t -> t
(** {!of_code} on the program's own fresh {!code}. *)

val get_value : t -> Shift_isa.Reg.t -> int64
val set_value : t -> Shift_isa.Reg.t -> int64 -> unit
val get_nat : t -> Shift_isa.Reg.t -> bool
val set_nat : t -> Shift_isa.Reg.t -> bool -> unit

val add_io_cycles : t -> int -> unit
(** Charge I/O time from a syscall handler. *)

type status = [ `Yielded | `Finished of outcome ]
(** Result of one bounded engine slice: [`Yielded] means the budget ran
    out with the program still live; [`Finished] carries the terminal
    outcome. *)

val run_for : t -> budget:int -> status
(** The resumable stepping engine: execute at most [budget] instructions
    and suspend.  A machine suspended by [`Yielded] can be resumed by
    calling [run_for] again; the instruction stream (and with it every
    counter in [t.stats]) is independent of how a run is sliced into
    budgets, because suspension happens between instruction groups and
    touches no machine state.  Cycle counts are finalised into [t.stats]
    on every return, including when a syscall handler raises (the policy
    engine propagates alerts as exceptions).  A non-positive budget
    yields immediately. *)

val run : ?fuel:int -> t -> outcome
(** Execute until halt, fault or fuel exhaustion (default fuel 2e9
    instructions): one {!run_for} slice of [fuel] instructions, with
    [`Yielded] surfaced as {!Out_of_fuel}.  Cycle counts are finalised
    into [t.stats] on return.  Exceptions raised by the syscall handler
    other than {!Exit_requested} propagate (the policy engine uses this
    for alerts). *)

val step : t -> outcome option
(** Execute a single instruction; [None] while the program is still
    running. *)

(** {1 Execution internals}

    Exposed so {!Superblock} can compile instruction bodies that are
    observably identical to {!step}.  Not a stable user API. *)

val chk_penalty : int

val eval_arith : Shift_isa.Instr.arith -> int64 -> int64 -> int64
(** Arithmetic semantics; raises {!Fault_exn} on division by zero. *)

val touch_cache : t -> pc:int -> store:bool -> areg:Shift_isa.Reg.t -> int64 -> bool
(** The single gateway for guest loads/stores into the L1D model:
    performs {!Cache.access} and, when {!field-hwtrace} is live, records
    the set index, hit bit and the address register's provenance id.
    [true] on hit.  Superblock closures must call this rather than
    {!Cache.access} so both engines emit identical hardware traces. *)

val set_pred : t -> Shift_isa.Pred.t -> bool -> unit
(** Write a predicate register (writes to p0 are discarded). *)

val unat_bit : int64 -> int
(** UNAT bit index covering an 8-byte-aligned spill address. *)

val goto : t -> int -> unit
(** Taken control transfer: set [ip], count the branch, redirect the
    pipeline with the one-cycle branch penalty. *)

val track_op : t -> Decode.info -> unit
(** The tag-coprocessor mirror of one executing instruction: push the
    records that carry its taint semantics onto {!field-tracking}'s
    queue (operands read pre-execution, nothing for an address
    {!exec_op} would reject), then {!charge_stall}.  A syscall first
    flushes the queue.  May raise {!Shift_policy.Alert.Violation} from
    a forced drain. *)

val charge_stall : t -> Shift_tracking.Tracking.t -> unit
(** Hand the tracking handle's accrued queue stall to the pipeline. *)

val exec_op : t -> Decode.info -> unit
(** The functional effect of one instruction whose qualifying predicate
    is true (advances [ip]; may raise {!Fault_exn}, {!Halt_exn} or the
    syscall handler's exceptions).  Timing and statistics other than
    per-op event counters are the caller's job, exactly as in
    {!step}. *)
