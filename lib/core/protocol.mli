(** The [shiftc serve] wire protocol: versioned JSONL over a
    Unix-domain socket.

    Framing is one JSON object per LF-terminated line, in both
    directions.  A connection opens with version negotiation — the
    client's first line must be a {e hello} carrying
    [{"proto_version": 1}], answered by {!hello_ack} — after which the
    client sends request envelopes and the server answers each with a
    response naming the request's [id].  Responses may arrive in any
    order (jobs finish when they finish), which is why every job
    request must carry an [id].

    This module is the single source of truth for the wire format:
    request parsing, response building, the request-kind catalogue
    ({!kinds}) and the error-code catalogue ({!error_codes}).
    [docs/PROTOCOL.md] documents every kind and code, and CI greps that
    document against these two lists so the spec cannot drift from the
    implementation.  The module is pure data — no sockets — so tests
    exercise the full grammar without a daemon. *)

val version : int
(** The protocol version this build speaks.  A hello carrying any other
    value is rejected with [unsupported_version] and the connection is
    closed; clients are expected to reconnect speaking an older
    protocol only if they implement it (there is exactly one so far). *)

val default_max_request_bytes : int
(** Default cap on one request line's length (1 MiB).  The server's
    {!hello_ack} advertises the cap it actually enforces. *)

(** {1 Errors} *)

(** Machine-readable error codes carried in failure responses. *)
type error_code =
  | Bad_json  (** the line did not parse as JSON *)
  | Bad_request  (** parsed, but a field is missing or ill-typed *)
  | Unsupported_version  (** hello carried a version this build lacks *)
  | Unknown_kind  (** a ["kind"] outside {!kinds} *)
  | Unknown_name  (** no such kernel / attack case / traceable image *)
  | Oversized  (** request line longer than the advertised cap *)
  | Draining  (** job refused because the server is draining *)
  | Job_crashed  (** the job's session crashed (retries exhausted) *)

val error_code_to_string : error_code -> string
val error_codes : error_code list

(** A failure: code, human-readable message, and the offending
    request's [id] when it could still be recovered from the line. *)
type error = { code : error_code; message : string; error_id : string option }

(** {1 Requests} *)

val kinds : string list
(** The request-kind catalogue, in documentation order:
    ["run"], ["attack"], ["trace"], ["batch"], ["leak"], ["status"],
    ["drain"]. *)

(** The request body, by kind.  Modes travel as
    {!Shift_compiler.Mode.to_string} names and default to [word].  Job
    kinds carry a [superblocks] flag (wire field ["superblocks"],
    default [true]): [false] runs the session on the pure interpreter —
    observationally identical, so it is a debugging escape hatch, not a
    semantic knob.  Job kinds also carry a [backend] (wire field
    ["backend"], a {!Shift_tracking.Backend.of_string} name, default
    ["nat"]) selecting the taint-tracking backend; non-nat backends run
    the guest uninstrumented regardless of [mode]
    ([Session.effective_mode]). *)
type request =
  | Run of {
      kernel : string;
      mode : Shift_compiler.Mode.t;
      size : int option;  (** input bytes; [None] = the kernel's default *)
      safe : bool;  (** leave the input untainted *)
      superblocks : bool;
      backend : Shift_tracking.Backend.t;
    }
  | Attack of {
      case : string;  (** prefix of the Table-2 program name *)
      mode : Shift_compiler.Mode.t;
      benign : bool;
      superblocks : bool;
      backend : Shift_tracking.Backend.t;
    }
  | Trace of {
      image : string;  (** attack case or kernel, as [shiftc trace] *)
      mode : Shift_compiler.Mode.t;
      benign : bool;
      ring : int;  (** event-ring capacity *)
      only : string option;  (** comma-separated event kinds, or all *)
      superblocks : bool;
      backend : Shift_tracking.Backend.t;
    }
  | Batch of {
      kernels : string list;  (** [[]] = the whole kernel suite *)
      mode : Shift_compiler.Mode.t;
      size : int option;
      safe : bool;
      retries : int;  (** per-job crash retries *)
      superblocks : bool;
      backend : Shift_tracking.Backend.t;
    }
  | Leak of {
      case : string;  (** attack case with input variants *)
      mode : Shift_compiler.Mode.t;
      clause : Leak.clause;  (** wire field ["clause"], default ct-seq *)
      variants : int;  (** variant count ≥ 2 (wire default 4) *)
      superblocks : bool;
      backend : Shift_tracking.Backend.t;
    }
  | Status
  | Drain

(** A parsed request line: routing metadata plus the body.  [id] is
    required for job kinds (the server enforces it — responses are
    correlated by [id]); [deadline] caps the session's fuel;
    [migrate_every] asks the scheduler to checkpoint-and-migrate the
    session between workers every that-many slices. *)
type envelope = {
  id : string option;
  tenant : string option;
  deadline : int option;
  migrate_every : int option;
  request : request;
}

val kind_of_request : request -> string

val check : request -> (request, string) result
(** The one range check on request values, applied by the wire parser
    and by [shiftc]'s request arguments alike: [size] and [ring]
    positive, [retries] non-negative, [variants] at least 2, and
    [events] naming only known kinds ({!event_kinds}).  [Error] carries
    the message the wire answers with [bad_request]. *)

val event_kinds : string -> (Shift_machine.Flowtrace.kind list, string) result
(** Parse a comma-separated [events] list into Flowtrace event kinds. *)

val hello_of_json : Results.json -> (int, string) result
(** Extract the [proto_version] of a hello line. *)

val request_of_json : Results.json -> (envelope, error) result
(** Parse an envelope; the body must pass {!check}. *)

val of_line : ?max_bytes:int -> string -> (envelope, error) result
(** Parse one request line: length cap ([Oversized]), JSON parse
    ([Bad_json]), then {!request_of_json}.  [max_bytes] defaults to
    {!default_max_request_bytes}. *)

(** {1 Building lines}

    Every builder returns a {!Results.json}; {!to_line} turns one into
    its single-line wire form (minified — the pretty printer would
    break JSONL framing). *)

val hello : Results.json
(** What a client opens with: [{"proto_version": 1}]. *)

val hello_ack : max_request_bytes:int -> Results.json
(** The server's answer to a well-versioned hello. *)

val request_to_json : envelope -> Results.json
(** Serialise a request envelope (the client side of
    {!request_of_json}; round-trips through it). *)

val ok_response : ?tenant:string -> ?id:string -> Results.json -> Results.json
(** [{("id": ..,) "ok": true, ("tenant": ..,) "result": ..}]; an id-less
    status or drain gets its answer without the id. *)

val error_response : error -> Results.json
(** [{("id": ..,) "ok": false, "error": {"code": .., "message": ..}}] *)

val response_id : Results.json -> string option
val response_ok : Results.json -> bool

val to_line : Results.json -> string
(** Minified single-line serialisation, without the trailing newline. *)
