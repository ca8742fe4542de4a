(** The Apache-stand-in web server (paper §6.1, Figure 6).

    A static-file HTTP server: accept, parse the request line, open the
    file under the document root (policy H2 sink), send a header built
    with the instrumented [sprintf], and ship the body with [sendfile]
    (kernel copy — as for real Apache, the bytes never cross user
    space).  Instrumented CPU work is confined to request parsing, so
    the overhead is diluted by I/O time, most at small file sizes. *)

val program : Ir.program

val document_root : string

val policy : Shift_policy.Policy.t
(** Network tainted, H2 over the document root, low-level policies. *)

val io_cost : Shift_os.World.io_cost
(** Network-server cost model: expensive kernel crossings. *)

val rtt_cycles : int
(** Client round-trip latency added to per-request latency. *)

val setup : file_size:int -> requests:int -> Shift_os.World.t -> unit
(** Install a static file of [file_size] bytes and queue [requests]
    GETs for it. *)

val worker_program : workers:int -> Ir.program
(** The worker-process personality: the master forks [workers] (clamped
    to [1..8]) children, each running the same accept loop
    over the shared pending-request queue; a worker exits with its
    served count once the queue drains, and the master reaps them all
    and exits with the fleet's total. *)

val serve :
  ?policy:Shift_policy.Policy.t ->
  ?io_cost:Shift_os.World.io_cost ->
  ?fuel:int ->
  ?slice:int ->
  ?on_slice:(Shift.Session.live -> unit) ->
  ?backend:Shift.Backend.t ->
  ?workers:int ->
  mode:Shift_compiler.Mode.t ->
  file_size:int ->
  requests:int ->
  unit ->
  Shift.Report.t
(** Serve [requests] GETs of a [file_size]-byte file by driving the
    server through the resumable engine: the request stream is
    installed up front and the host advances the session in [slice]
    -instruction engine slices ([on_slice] fires between them — the
    hook a multiplexing front end uses) instead of one monolithic run.
    Because engine suspension touches no machine state, the report's
    counters are byte-identical to a single-slice run at any [slice].
    [policy]/[io_cost] default to this module's.  [backend] selects the
    tracking backend (default [nat]); as everywhere, non-nat backends
    run the guest uninstrumented regardless of [mode].  [workers]
    switches to {!worker_program} under the multi-process OS
    personality, the master and workers sharing the request queue
    (incompatible with the coproc backend, which binds one address
    space). *)
