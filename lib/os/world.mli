(** The simulated OS: file system, network, descriptors, heap break,
    syscall dispatch, taint sources and policy sinks.

    This layer plays the role of the kernel plus the paper's
    configuration-driven taint sources (§3.3.1): data entering through
    [read]/[recv] is marked in the bitmap according to the policy, and
    the high-level policies (Table 1) are enforced when tainted data
    reaches an OS sink ([open], [system], [sql_exec], [html_out]).

    A world hosts one or more {e kernel contexts} — per-process
    descriptor tables and heap breaks.  Single-process sessions run
    entirely in the base context and see exactly the classic
    behaviour; a multi-process scheduler ({!Procs}) creates one context
    per process, switches the current one at each quantum, and wires
    the [fork]/[exec]/[wait] syscalls through {!set_procs}.  Open files
    and pipes live in a kernel-wide refcounted object table so
    descriptors inherited across [fork] (or duplicated with [dup])
    share stream positions and pipe buffers, as on Unix.

    I/O syscalls charge cycle costs so that I/O-bound workloads (the
    Apache experiment, Figure 6) show instrumentation overhead diluted
    by I/O time, as on real hardware. *)

type io_cost = {
  per_call : int;      (** fixed kernel-crossing cost, cycles *)
  per_byte : int;      (** cost per byte moved by read/write/recv/send *)
  sendfile_per_byte : int;  (** cheaper: no user-space copy *)
}

val default_io_cost : io_cost

type t

val create :
  ?policy:Shift_policy.Policy.t ->
  ?gran:Shift_mem.Granularity.t ->
  ?io_cost:io_cost ->
  ?tracking:Shift_tracking.Tracking.t ->
  unit ->
  t
(** Granularity defaults to [Word]; it must match the compilation mode
    of the guest so host-side bitmap reads agree with the instrumented
    code.  [tracking] (default an inert [nat] handle) gates the kernel's
    taint touch-points: input syscalls mark their buffers only when the
    backend tracks sources, and the H1–H5 sink policies are evaluated
    only when it performs checks. *)

val policy : t -> Shift_policy.Policy.t

val add_file : t -> ?tainted:bool -> string -> string -> unit
(** [add_file t path content]; [tainted] defaults to the policy's
    [taint_files]. *)

val queue_request : t -> string -> unit
(** Enqueue a network connection whose payload [recv] will return;
    [accept] pops the queue. *)

val set_stdin : t -> ?tainted:bool -> string -> unit
(** Install keyboard input (paper §3.3.1 source 3): what [read]ing
    fd 0 returns.  Tainted by default. *)

val output : t -> string
(** Everything the guest wrote with [write]/[send] to non-pipe
    descriptors. *)

val html_output : t -> string
val sql_queries : t -> string list
val system_commands : t -> string list

val alerts : t -> Shift_policy.Alert.t list
(** Alerts recorded so far (all of them under [Log_only]; under
    [Halt_program] the first one is instead raised as
    {!Shift_policy.Alert.Violation}). *)

val handler : t -> Shift_machine.Cpu.t -> unit
(** The syscall dispatcher to install as
    [cpu.syscall_handler]. *)

val set_threads :
  t ->
  spawn:(Shift_machine.Cpu.t -> entry:int64 -> arg:int64 -> int) ->
  join:(int -> int64 option) ->
  unit
(** Enable the [spawn]/[join] syscalls (wired to {!Shift_machine.Smp}
    by a [Threads] session); [join] returning [None] means "still
    running" and makes the caller spin. *)

(** {1 Processes}

    Everything below is driven by {!Procs}; a world without
    {!set_procs} fails the process syscalls with [-1] and never
    decorates its observable output, keeping single-process runs
    byte-identical to the classic kernel. *)

(** Bytes of an exec argument, sampled (with per-byte taint and
    provenance) from the caller's address space before the image is
    replaced: the only data that survives [exec].  The new image reads
    them back with [sys_getarg], which re-deposits the shadow state in
    the fresh address space. *)
type arg_value = {
  a_bytes : string;
  a_taints : bool array;
  a_provs : int array;
}

(** What a [wait] attempt found. *)
type wait_result =
  | Wait_ready of int64  (** a child was reaped; its exit status *)
  | Wait_block  (** children alive but none done: retry next quantum *)
  | Wait_none  (** no children to wait for: [-1] *)

val set_procs :
  t ->
  fork:(Shift_machine.Cpu.t -> int64) ->
  exec:(Shift_machine.Cpu.t -> prog:string -> args:arg_value list -> unit) ->
  wait:(int -> wait_result) ->
  unit
(** Enable the process syscalls and multi-process decoration of alerts
    and provenance chains (pid/comm on origins, sinks and messages).
    [fork] returns the child pid in the parent (the scheduler gives the
    child its own return value); a successful [exec] raises to unwind
    the replaced image, and a normal return means the program was not
    found. *)

(** A kernel context: one process's descriptor table, heap break, comm
    name and cross-process provenance breadcrumbs. *)
type ctx

val base_ctx : t -> ctx
(** The context the world starts in (pid 1, comm ["main"]). *)

val current_ctx : t -> ctx

val use_ctx : t -> ctx -> unit
(** Context switch: subsequent syscalls run against this context. *)

val ctx_pid : ctx -> int

val set_comm : ctx -> string -> unit
(** Name the process (shown in alerts and provenance hops). *)

val fork_ctx : t -> ctx -> pid:int -> ctx
(** A child context: the parent's descriptor table copied entry by
    entry (each shared object gains a reference), same break, comm and
    breadcrumbs. *)

val exec_reset_ctx : t -> ctx -> comm:string -> argv:arg_value list -> unit
(** Reset the image-owned state on [exec]: new comm, fresh break, the
    sampled argv.  Descriptors and breadcrumbs survive. *)

val close_ctx : t -> ctx -> unit
(** Process teardown: drop every descriptor (pipe ends held only by a
    finished process stop counting, so readers see EOF once the last
    writer exits). *)

(** {1 Checkpoint/restore}

    The mutable kernel state as plain data: file system, the shared
    object table (streams with positions, pipe buffers), per-context
    descriptor tables, the pending connection queue, output buffers and
    sink logs.  The policy, granularity and I/O cost model are {e not}
    part of a dump — they come from the session configuration that
    recreates the world. *)

type fd_state = {
  fd_content : string;
  fd_pos : int;
  fd_tainted : bool;
  fd_path : string option;
}

(** What a descriptor points at: a stream or one end of a pipe, by
    object id. *)
type fd_entry = Fstream of int | Fpipe_r of int | Fpipe_w of int

type obj_state = Os_stream of fd_state | Os_pipe of Pipe.state

type ctx_state = {
  cx_pid : int;
  cx_comm : string;
  cx_fds : (int * fd_entry) list;  (** sorted by fd *)
  cx_next_fd : int;
  cx_brk : int64;
  cx_crumbs : string list;  (** internal (newest-first) order *)
  cx_argv : arg_value list;
}

type dump = {
  d_files : (string * string * bool) list;  (** path, content, tainted; sorted *)
  d_objs : (int * int * obj_state) list;  (** oid, refs, state; sorted *)
  d_next_oid : int;
  d_ctx : ctx_state;  (** the base context *)
  d_pending : string list;  (** queue order, head first *)
  d_output : string;
  d_html : string;
  d_sql : string list;  (** internal (newest-first) order *)
  d_commands : string list;  (** internal (newest-first) order *)
  d_alerts : Shift_policy.Alert.t list;  (** internal (newest-first) order *)
}

val dump_ctx : ctx -> ctx_state

val ctx_of_state : ctx_state -> ctx

val load_ctx_into : ctx -> ctx_state -> unit
(** Install a dumped context in place (descriptor entries are installed
    without touching object reference counts — the object-table dump
    already carries the aggregate counts). *)

val dump : t -> dump

val undump : t -> dump -> unit
(** Overwrite [t]'s mutable state with the dump's.  [t] should be a
    fresh world created with the same policy/granularity/io_cost as the
    dumped one.  Non-base contexts are restored separately through
    {!ctx_of_state} by the process-table snapshot. *)
