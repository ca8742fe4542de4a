(** Machine-readable experiment results.

    The benchmark harness ([bench/main.exe --json]) serialises every
    experiment into a versioned JSON document, one [BENCH_<experiment>.json]
    file per experiment, so performance trajectories can be diffed across
    commits by machines rather than by reading console tables.  The
    container ships no JSON library, so this module carries a small
    self-contained JSON type with a printer and a parser; the parser
    exists mainly so tests can assert round-trips.

    The document layout (see EXPERIMENTS.md for the full schema) is:

    {[
      {
        "schema_version": 2,
        "experiment": "fig7",
        "domains": 4,
        "wall_clock_s": 12.34,
        "data": { ... experiment-specific payload ... }
      }
    ]} *)

(** A JSON value.  Numbers keep their OCaml representation: [Int] for
    exact counters (cycles, instruction counts), [Float] for derived
    ratios (slowdowns, overheads). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list  (** fields, in emission order *)

val schema_version : int
(** Version stamped into every {!document}.  Bump it whenever the shape
    of an emitted payload changes incompatibly. *)

val to_string : ?minify:bool -> json -> string
(** Serialise.  Pretty-printed with two-space indentation by default
    (the files are meant to be read in diffs); [minify] drops all
    whitespace.  Non-finite floats become [null], since JSON has no
    representation for them; all other floats are printed with enough
    digits to parse back to the identical value. *)

val to_buffer : ?minify:bool -> Buffer.t -> json -> unit
(** [to_buffer b j] appends exactly the bytes [to_string j] returns, so
    a caller writing many values (JSONL lines, a file) can print them
    into one buffer without a copy per value. *)

(** {1 Direct writing}

    The primitives {!to_buffer} prints with, for writers that emit JSONL
    lines ({!Flow}, {!Leak}) or a whole document ({!Snapshot}) without
    building a [json] tree. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped b s] appends [s] as a JSON string literal: quoted,
    with quotes, backslashes and control bytes escaped and every other
    byte copied raw — exactly what [to_buffer b (String s)] appends. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends the bytes of [string_of_int n] without
    allocating them (except for [min_int]). *)

val add_newline : Buffer.t -> int -> unit
(** A newline and [indent] spaces: {!to_buffer}'s break before each
    element of a list or object and before its closing bracket. *)

val of_string : string -> (json, string) result
(** Parse a complete JSON text.  Accepts exactly the constructs
    {!to_string} emits plus standard escapes; the error string carries
    a byte offset. *)

val member : string -> json -> json option
(** [member key j] is the value of field [key] if [j] is an [Obj]
    containing it. *)

val of_stats : Shift_machine.Stats.t -> json
(** Counters of one run: instructions, cycles, loads, stores, branches,
    predicated-off slots, syscalls, I/O cycles, and the per-provenance
    issue-slot breakdown that drives the Figure-9 analysis (keyed by
    {!Shift_isa.Prov.to_string} names). *)

val of_flow : Shift_machine.Flowtrace.summary -> json
(** Flow-trace counters of a traced run: births, propagations, purges,
    checks, sink hits, max chain depth, and ring occupancy. *)

val of_outcome : Report.outcome -> json
(** Tagged object with a ["kind"] of ["exited"], ["alert"], ["fault"]
    or ["timeout"], plus the kind-specific detail.  Alerts from traced
    runs additionally carry their provenance ["chain"]. *)

val of_report : Report.t -> json
(** Outcome, detection flag, {!of_stats} counters, and alert/output
    volume counts, plus a ["flow"] object ({!of_flow}) for traced runs.
    Raw output bytes are deliberately omitted — the documents are
    diffed, not replayed. *)

val document :
  experiment:string -> domains:int -> wall_clock_s:float -> json -> json
(** Wrap an experiment payload in the versioned envelope shown above.
    [domains] is the worker-pool size the harness ran with and
    [wall_clock_s] the host-side wall-clock for the whole experiment,
    the two numbers that make parallel-speedup regressions visible. *)
