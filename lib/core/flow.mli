(** Deterministic JSONL export of a flow trace.

    One JSON object per line, minified, in a fixed order: a [meta]
    header (carrying the {!Results.schema_version}), the interned
    sources, the ring's events oldest-first, the counter [summary], and
    optionally the run's [outcome] (alerts include their provenance
    chain).  Two identical runs produce byte-identical output — the CI
    determinism gate diffs the files with [cmp].

    Cost: the document is printed into one [Buffer] sized up front from
    the ring occupancy and the source count.  Source and event lines are
    written field by field with fixed key literals, read straight from
    the ring, with no intermediate [Results.json] tree, event list or
    [Format] call; only the meta, summary and outcome lines are built as
    trees.  Exporting a full 4096-event ring takes roughly one
    allocation of the output's size plus the final string. *)

val jsonl :
  ?meta:(string * Results.json) list ->
  ?outcome:Report.outcome ->
  Shift_machine.Flowtrace.t ->
  string
(** The full JSONL document, newline-terminated.  [meta] fields are
    appended to the header line (e.g. the traced image's name and
    mode). *)

val add_event : Buffer.t -> Shift_machine.Flowtrace.event -> unit
(** One event line, newline included: [line], [seq], [ip], [ev], then
    the detail fields of the event's kind.  Registers print as ["rN"],
    addresses as {!Shift_mem.Addr.pp} does (["rK:0x…"]); a birth at
    address [0] (register-born taint) has no [addr] field. *)

val add_source : Buffer.t -> Shift_machine.Flowtrace.source -> unit
(** One source line, newline included. *)

val pp : Format.formatter -> Shift_machine.Flowtrace.t -> unit
(** Human-readable rendering: sources, events, summary. *)
