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

    The on-disk format is versioned JSON in {!Results.to_string}'s
    layout, written with no {!Results.json} tree.  Memory pages, syscall
    argument and pipe bytes and the marshalled images (each image's
    {!Shift_compiler.Image.payload}) are hex-encoded; guest file contents
    ([world.files[].content] and [world.objs[].state.content]) are JSON
    strings, with bytes [>= 0x80] left raw, so a snapshot of a session
    whose files hold such bytes is not valid UTF-8 JSON:
    {!Results.of_string} reads it back, a strict UTF-8 parser does not.
    Each component is declared once, as a bidirectional codec from
    which both the writer and the decoder are derived: records write
    their fields in declaration order, variants write their tag first
    and their payload fields inline.  The omission rule: a field added
    after the format was in use is left out while it holds its default
    value, and an absent field decodes to that default, so snapshots of
    sessions that do not use a feature keep their earlier bytes.
    [Session.checkpoint] produces snapshots and [Session.restore]
    rebuilds live sessions from them; this module owns the data model
    and the serialisation. *)

(** {1 The data model} *)

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
  ps_state : Shift_machine.Sched.state;
      (** written with the process tags: [run], [zombie], [crashed] *)
  ps_hart : hart;
  ps_mem : (int64 * string) list;
  ps_prov : (int64 * string) list;  (** traced runs only, else [[]] *)
  ps_ctx : Shift_os.World.ctx_state;
}

type machine =
  | M_cpu of hart
  | M_smp of {
      sm_quantum : int;
      sm_harts : (int * Shift_machine.Sched.state * hart) list;
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
  config : Config.t;
      (** the session's configuration.  Every field but [setup] is
          serialised, and [setup] decodes to a no-op: its effects are
          already in the world and memory state, and a restored session
          never runs it.  [hwtrace], [backend], [images] and the three
          coproc knobs are written only when they differ from their
          defaults, so snapshots of sessions that do not use them keep
          their version-1 bytes.  Neither the Hwtrace buffer nor the
          superblocks compiled under [superblocks] are ever written. *)
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
  config:Config.t ->
  fuel_left:int ->
  result:Report.outcome option ->
  engine:Shift_machine.Exec.t ->
  world:Shift_os.World.t ->
  unit ->
  t
(** Deep-copy the machine, memory, world and (when traced) flow state
    out of a live engine.  Safe to call between [run_for] slices only —
    never from inside a syscall handler.  The engine is captured by its
    shape: a single hart as [M_cpu], a scheduled machine as [M_smp], or,
    when a process table owns it ({!Shift_os.Process.table}), as
    [M_procs], with every table entry's hart, address space, provenance
    shadow and kernel context dumped per process and the top-level
    [memory] page list empty. *)

val import_cpu : hart -> Shift_machine.Cpu.t -> unit
(** Overwrite a freshly created CPU's state with the hart's.  The
    hart's arrays must have the machine's lengths, as every captured or
    decoded hart's do. *)

val load_memory : Shift_mem.Memory.t -> (int64 * string) list -> unit
val load_provenance : Shift_mem.Provenance.t -> (int64 * string) list -> unit

(** {1 Serialisation} *)

val to_string : t -> string
(** The snapshot's text, written straight from the codecs into the
    calling domain's buffer (so two threads of one domain must not
    encode at once).  Deterministic: field order is fixed, pages and
    hashtable-backed state are sorted. *)

val to_json : t -> Results.json
(** The parse of {!to_string}, which {!Results.to_string} prints back. *)

val of_json : Results.json -> (t, string) result
(** Never raises on malformed input: wrong kinds or versions, missing
    or ill-typed fields, unknown tags, truncated or unreadable embedded
    images, hart arrays whose length differs from a fresh machine's,
    processes running an image [config.images] does not name, memory
    or provenance pages of the wrong size, non-positive quanta, and
    schedules {!Shift_machine.Sched.check} refuses (no tasks, a first
    task other than hart 0 or pid 1, a round naming an unknown task)
    all come back as [Error], with the message naming the field path. *)

val save : string -> t -> unit
(** Write {!to_string} and a newline, encoded in full first, to a temporary
    sibling renamed over the path; a failure removes it and re-raises. *)

val load : string -> (t, string) result
(** Read and parse a snapshot file. *)
