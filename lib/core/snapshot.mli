(** Deterministic checkpoint images of a live session.

    A snapshot captures {e everything} that determines the rest of a
    run: the compiled image, the session configuration, every hart's
    architectural and micro-architectural state (registers with NaT
    bits, UNAT, predicates, pipeline scoreboard, cache lines, counters),
    the touched memory pages (which include the taint bitmap — region 0
    of the address space), the OS world (files, fd positions, pending
    requests, buffers, heap break), and — for traced runs — the
    Flowtrace ring plus the provenance shadow pages.

    The headline invariant (enforced by test/test_snapshot.ml and the
    CI resume gate): checkpoint mid-flight, serialise to disk, restore
    in a fresh process, run to completion — and every counter and
    report field is byte-identical to the unbroken run, across single
    hart, SMP and traced shapes.

    The on-disk format is versioned JSON ({!Results.json}).  Memory
    pages, syscall argument and pipe bytes and the marshalled images
    are hex-encoded; guest file contents ([world.files[].content] and
    [world.objs[].state.content]) are written as JSON strings, with
    bytes [>= 0x80] left raw, so a snapshot of a session whose files
    hold such bytes is not valid UTF-8 JSON: {!Results.of_string} reads
    it back, a strict UTF-8 parser does not.
    Each component is declared once, as a bidirectional codec from
    which both the encoder and the decoder are derived: records write
    their fields in declaration order, variants write their tag first
    and their payload fields inline.  The omission rule: a field added
    after the format was in use is left out while it holds its default
    value, and an absent field decodes to that default, so snapshots of
    sessions that do not use a feature keep their earlier bytes.
    [Session.checkpoint] produces snapshots and [Session.restore]
    rebuilds live sessions from them; this module owns the data model
    and the serialisation. *)

(** {1 The data model} *)

(** Machine shape, mirrored from [Session.Config.threading] (which this
    module cannot name without a dependency cycle). *)
type threading =
  | T_single
  | T_threads of int option
  | T_procs of { tp_quantum : int option; tp_comm : string option }

(** The serialisable part of a session configuration.  The world-setup
    closure is deliberately absent: its effects are already captured in
    the world and memory state, so a restored session runs with a no-op
    setup. *)
type config = {
  c_policy : Shift_policy.Policy.t;
  c_io_cost : Shift_os.World.io_cost;
  c_fuel : int;  (** the configured budget, not what remains *)
  c_threading : threading;
  c_trace : Shift_machine.Flowtrace.options option;
  c_hwtrace : bool;
      (** whether the session records the cache-set observation trace;
          the buffer itself is never snapshotted (a restored session
          records from the restore point on), and the flag is serialised
          only when on so untraced snapshots keep their bytes *)
  c_superblocks : bool;
      (** whether the superblock compiler may run; the blocks themselves
          belong to the image's code and are never written (an
          in-memory snapshot hands the image, code included, to the
          restored session; a decoded one builds fresh code) *)
  c_backend : Shift_tracking.Backend.t;
      (** tracking backend; serialised only when not the default [Nat],
          so nat snapshots stay byte-identical to pre-backend ones *)
  c_images : (string * Shift_compiler.Image.t) list;
      (** auxiliary exec'able images by program name, multi-process
          sessions only; serialised only when non-empty so every other
          snapshot shape stays byte-identical to version 1 files *)
  c_coproc_capacity : int option;
  c_coproc_drain_rate : int option;
  c_coproc_stall_penalty : int option;
      (** the tag-coprocessor queue knobs as configured ([None] = the
          model default); each is serialised only when set *)
}

(** One hart's complete execution state. *)
type hart = {
  h_values : int64 array;
  h_nats : bool array;
  h_preds : bool array;
  h_unat : int64;
  h_ip : int;
  h_stats : Shift_machine.Stats.t;
  h_pipe : Shift_machine.Pipeline.snap;
  h_cache : Shift_machine.Cache.snap;
  h_call_stack : (int * int64) list;  (** top of stack first *)
  h_ftregs : (int array * int array) option;
      (** register provenance shadow (ids, depths) for traced runs *)
}

(** One process-table entry: its hart, its private address space and
    provenance shadow (multi-process machines dump pages per process,
    so the top-level [memory] and flow pages stay empty), and its
    kernel context. *)
type proc_snap = {
  ps_pid : int;
  ps_parent : int;
  ps_image : string option;
      (** name of the exec'd auxiliary image; [None] = the main image *)
  ps_state : Shift_os.Process.state;
  ps_hart : hart;
  ps_mem : (int64 * string) list;
  ps_prov : (int64 * string) list;  (** traced runs only, else [[]] *)
  ps_ctx : Shift_os.World.ctx_state;
}

type machine =
  | M_cpu of hart
  | M_smp of {
      sm_quantum : int;
      sm_harts : (int * Shift_machine.Smp.state * hart) list;
          (** in id order, hart 0 first — finished harts included so
              spawn numbering stays deterministic after restore *)
      sm_round : (int * int) list;
          (** suspended round-robin tail: hart id, remaining quantum *)
      sm_finished : Shift_machine.Cpu.outcome option;
    }
  | M_procs of {
      pm_quantum : int;
      pm_next_pid : int;
      pm_procs : proc_snap list;  (** in pid order, pid 1 first *)
      pm_round : (int * int) list;
          (** suspended scheduler tail: pid, remaining quantum *)
      pm_finished : Shift_machine.Cpu.outcome option;
      pm_retired : Shift_machine.Stats.t;
          (** counters of already-reaped processes *)
    }

type t = {
  meta : (string * string) list;
      (** free-form provenance (kernel name, mode, ...); not consumed
          by restore *)
  image : Shift_compiler.Image.t;
      (** embedded so a snapshot is self-contained: [shiftc resume]
          needs nothing but the file *)
  config : config;
  fuel_left : int;
  result : Report.outcome option;  (** set when the run already finished *)
  memory : (int64 * string) list;
      (** touched pages as (page key, {!Shift_mem.Memory.page_size}
          bytes), ascending key order, all-zero pages elided *)
  machine : machine;
  world : Shift_os.World.dump;
  flow : (Shift_machine.Flowtrace.dump * (int64 * string) list) option;
      (** flow-trace state plus provenance shadow pages, traced runs
          only *)
  tracking : Shift_tracking.Tracking.dump option;
      (** tag-coprocessor state — register tag file, pending queue, lag
          clock, uncharged stall — [coproc] sessions only.  The
          coprocessor's memory bitmap needs no separate entry: it lives
          in guest memory and rides the [memory] pages. *)
}

val version : int
(** Format version stamped into every serialised snapshot; loading
    rejects other versions.  Version 2 added the multi-process machine
    shape, auxiliary images and the kernel-object descriptor table. *)

(** {1 Capture and restore helpers}

    [Session.checkpoint]/[Session.restore] are the public entry points;
    these are the building blocks they use. *)

val capture :
  ?meta:(string * string) list ->
  ?tracking:Shift_tracking.Tracking.dump ->
  image:Shift_compiler.Image.t ->
  config:config ->
  fuel_left:int ->
  result:Report.outcome option ->
  engine:Shift_machine.Exec.t ->
  world:Shift_os.World.t ->
  unit ->
  t
(** Deep-copy the machine, memory, world and (when traced) flow state
    out of a live engine.  Safe to call between [run_for] slices only —
    never from inside a syscall handler.
    @raise Invalid_argument on a [Custom] engine — a process-table
    machine checkpoints through {!capture_procs}. *)

val capture_procs :
  ?meta:(string * string) list ->
  ?tracking:Shift_tracking.Tracking.dump ->
  image:Shift_compiler.Image.t ->
  config:config ->
  fuel_left:int ->
  result:Report.outcome option ->
  procs:Shift_os.Process.t ->
  world:Shift_os.World.t ->
  unit ->
  t
(** {!capture} for a multi-process machine: every table entry's hart,
    address space, provenance shadow and kernel context is dumped
    per process ([M_procs]); the top-level [memory] page list is
    empty. *)

val export_cpu : traced:bool -> Shift_machine.Cpu.t -> hart
(** Deep copy of one hart's state ([traced] adds the register
    provenance shadow). *)

val import_cpu : hart -> Shift_machine.Cpu.t -> unit
(** Overwrite a freshly created CPU's state with the hart's.
    @raise Invalid_argument on register-file arity mismatches. *)

val load_memory : Shift_mem.Memory.t -> (int64 * string) list -> unit
val load_provenance : Shift_mem.Provenance.t -> (int64 * string) list -> unit

(** {1 Serialisation} *)

val to_json : t -> Results.json
(** Deterministic: field order is fixed, pages are sorted by key,
    hashtable-backed state is sorted before emission. *)

val of_json : Results.json -> (t, string) result
(** Never raises on malformed input: wrong kinds or versions, missing
    or ill-typed fields, unknown tags and truncated or unreadable embedded images all
    come back as [Error], with the message naming the field path. *)

val save : string -> t -> unit
(** Write [to_json] (pretty-printed) to a file, atomically (write to a
    temporary sibling, then rename). *)

val load : string -> (t, string) result
(** Read and parse a snapshot file. *)
