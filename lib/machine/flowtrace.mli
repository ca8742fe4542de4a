(** Taint-provenance tracking and flow-trace observability.

    SHIFT's alerts say {e that} tainted data reached a sink; Flowtrace
    records {e where} the taint entered and {e how} it flowed there.  It
    keeps two shadows next to the architectural taint state:

    - a per-byte {e provenance map} over guest memory
      ({!Shift_mem.Provenance}): each byte carries a small id interned
      to a {!source} record (input channel, stream offset, syscall or
      world origin);
    - a per-register id/depth shadow ({!regs}), one per hart, updated by
      the propagation hooks the CPU calls alongside the NaT lifecycle.

    Every hook emits a structured {!event} into a fixed-capacity ring
    buffer.  All hooks sit behind the single {!field-enabled} flag: with
    tracing off the cost in the interpreter hot loop is one
    load-and-branch per instrumented operation, which is why the record
    type is exposed — treat every field other than [enabled] as
    private. *)

open Shift_isa

(** {1 Sources and events} *)

type source = {
  sid : int;  (** id of the span's first byte; bytes get [sid..sid+len-1] *)
  channel : string;  (** e.g. ["file:archive.tar"], ["socket"], ["stdin"] *)
  origin : string;  (** the syscall or mechanism that introduced the taint *)
  offset : int;  (** input-stream offset of the span's first byte *)
  len : int;
}

type kind = Birth | Load | Prop | Store | Purge | Check | Sink

type detail =
  | Ev_birth of { src : source; addr : int64 }
      (** taint-in: an input span landed in guest memory *)
  | Ev_load of { reg : Reg.t; addr : int64; id : int }
      (** a tainted load pulled provenance [id] into [reg] *)
  | Ev_prop of { dst : Reg.t; src : Reg.t; id : int; depth : int }
      (** register→register OR-propagation ([depth] = chain length) *)
  | Ev_store of { reg : Reg.t; addr : int64; len : int; id : int }
      (** store-out: register provenance written back to memory *)
  | Ev_purge of { reg : Reg.t }
      (** a clear idiom (or [clrnat]) dropped the register's taint *)
  | Ev_check of { reg : Reg.t; tainted : bool }
      (** [tnat]/[chk.s] consumed the register's NaT state *)
  | Ev_sink of { policy : string; detail : string }
      (** tainted data reached a policy sink *)

type event = { seq : int; ip : int; ev : detail }

val kind_of : detail -> kind
val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

(** {1 The trace} *)

type t = {
  mutable enabled : bool;
  capacity : int;
  mask : int;  (** [capacity - 1] when capacity is a power of two, else -1 *)
  ring : event array;
  mutable count : int;  (** events emitted (post-filter); seq of the next one *)
  keep : bool array;  (** event-kind filter, indexed by kind *)
  mutable batching : bool;  (** events staging in [scratch] (superblock mode) *)
  scratch : event array;
  mutable scratch_len : int;
  mutable pmap : Shift_mem.Provenance.t;
      (** swappable so a multi-process kernel can install the running
          process's shadow — see {!set_provenance} *)
  mutable sources : source list;  (** newest first *)
  mutable next_id : int;
  spec_sources : (int, source) Hashtbl.t;  (** per-ip speculative births *)
  mutable births : int;
  mutable propagations : int;
  mutable purges : int;
  mutable checks : int;
  mutable sink_hits : int;
  mutable max_depth : int;
}

type options = { capacity : int; only : kind list option }

val default_options : options
(** 4096-event ring, no kind filter. *)

val create : ?options:options -> unit -> t
(** A live trace ([enabled = true]). *)

val disabled : unit -> t
(** The inert trace every CPU starts with: [enabled = false], minimal
    ring, never written to. *)

(** {1 Per-hart register shadow} *)

type regs = {
  id : int array;       (** live source id per register (0 = untainted) *)
  depth : int array;    (** propagation-chain depth per register *)
  washed : int array;
      (** declassified provenance: the source id a register carried
          before an [untaint]/bounds-check cleared its tag, propagated
          through moves and arithmetic over untainted values.  Taint
          semantics never read it — it exists so the side-channel
          detector ({!Shift.Leak}) can name the input bytes steering a
          cache access whose address was deliberately untainted. *)
}

val fresh_regs : unit -> regs

val copy_regs : regs -> regs -> unit
(** [copy_regs src dst] — used by {!Smp.spawn} so a child hart inherits
    its parent's register provenance. *)

(** {1 Hooks}

    Callers are expected to test {!field-enabled} first; the hooks
    themselves assume the trace is live. *)

val on_input :
  t ->
  ip:int ->
  channel:string ->
  origin:string ->
  offset:int ->
  addr:int64 ->
  len:int ->
  tainted:bool ->
  unit
(** An input syscall wrote [len] bytes at [addr].  Tainted input interns
    a fresh source span and emits a birth; clean input clears any stale
    provenance under the range. *)

val on_spec_nat : t -> regs -> ip:int -> dst:Reg.t -> unit
(** A speculative load deferred a fault into [dst]'s NaT bit.  The birth
    source is interned once per instruction address. *)

val on_load : t -> regs -> ip:int -> dst:Reg.t -> addr:int64 -> len:int -> unit
val on_store : t -> regs -> ip:int -> src:Reg.t -> addr:int64 -> len:int -> unit
val on_move : t -> regs -> ip:int -> dst:Reg.t -> src:Reg.t -> unit
val on_const : t -> regs -> dst:Reg.t -> unit

val on_arith :
  t ->
  regs ->
  ip:int ->
  dst:Reg.t ->
  src1:Reg.t ->
  src2:Reg.t option ->
  clear:bool ->
  unit
(** [clear] is the recognised clear idiom ([xor r = s, s] / [sub r = s,
    s]): the destination's provenance is purged rather than
    propagated. *)

val on_check : t -> regs -> ip:int -> src:Reg.t -> tainted:bool -> unit
val on_setnat : t -> regs -> ip:int -> reg:Reg.t -> unit
val on_clrnat : t -> regs -> ip:int -> reg:Reg.t -> unit
val on_sink : t -> ip:int -> policy:string -> detail:string -> unit

(** {1 Batched emission}

    The superblock driver brackets each compiled block with
    [begin_batch]/[end_batch]: events stage in a block-local scratch
    buffer and land in the ring in one flush.  Each event keeps the
    sequence number it was emitted with, so ring contents, [count] and
    drop accounting are identical to unbatched emission.  Queries must
    not run between the brackets; the driver guarantees [end_batch] on
    every exit path, including faults. *)

val begin_batch : t -> unit
val end_batch : t -> unit

(** {1 Queries} *)

val byte_id : t -> int64 -> int
(** Provenance id of a guest byte ([0] = none). *)

val source_of_id : t -> int -> source option
(** The interned source a byte id belongs to. *)

val input_offset : source -> int -> int
(** [input_offset s id] is the input-stream offset behind byte id [id]
    of span [s]. *)

val chain : t -> addr:int64 -> positions:int list -> string list
(** Provenance chain for the given byte [positions] of the string at
    [addr]: consecutive positions carrying consecutive offsets of the
    same source collapse into one
    ["input <channel>[<lo>..<hi>] via <origin>"] hop. *)

val events : t -> event list
(** Ring contents, oldest first. *)

val iter_events : t -> (event -> unit) -> unit
(** [iter_events t f] applies [f] to the ring contents, oldest first,
    without building the {!events} list. *)

val dropped : t -> int
(** Events that fell off the ring ([count - capacity], clamped). *)

val sources : t -> source list
(** Interned sources in id order. *)

type summary = {
  s_births : int;
  s_propagations : int;
  s_purges : int;
  s_checks : int;
  s_sink_hits : int;
  s_max_depth : int;
  s_events : int;
  s_dropped : int;
  s_sources : int;
}

val summary : t -> summary

(** {1 Checkpoint/restore} *)

val provenance : t -> Shift_mem.Provenance.t
(** The per-byte provenance shadow map (for page-level serialisation —
    see {!Shift_mem.Provenance.fold_pages}). *)

val set_provenance : t -> Shift_mem.Provenance.t -> unit
(** Swap the per-byte shadow.  A multi-process kernel keeps one shadow
    per address space and installs the running process's map at each
    context switch; interned sources and the event ring stay shared, so
    ids remain valid across every process. *)

(** The trace state as plain data: ring window, interned sources,
    filters and counters.  The provenance shadow is {e not} included —
    dump and reload it separately through {!provenance}. *)
type dump = {
  d_enabled : bool;
  d_capacity : int;
  d_keep : bool array;  (** kept kinds, indexed by {!kind_index} order *)
  d_count : int;  (** total events ever emitted *)
  d_window : event list;  (** live ring window, oldest first *)
  d_sources : source list;  (** internal (newest-first) order *)
  d_next_id : int;
  d_spec : (int * int) list;  (** interned speculative sources: ip, sid *)
  d_births : int;
  d_propagations : int;
  d_purges : int;
  d_checks : int;
  d_sink_hits : int;
  d_max_depth : int;
}

val dump : t -> dump

val of_dump : dump -> t
(** Rebuild a trace whose ring, counters and interning state are
    exactly the dumped ones (the provenance map starts empty — reload
    its pages through {!provenance}).
    @raise Invalid_argument on malformed dumps. *)

val pp_source : Format.formatter -> source -> unit
val pp_event : Format.formatter -> event -> unit
val pp_summary : Format.formatter -> summary -> unit
