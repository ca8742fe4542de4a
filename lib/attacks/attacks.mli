(** The security-evaluation suite: one guest program per row of the
    paper's Table 2, plus the Figure-1 motivating example
    ({!Qwik_smtpd}). *)

val all : Attack_case.t list
(** In the paper's Table-2 order: tar, gzip, Qwikiwiki, Scry,
    php-stats, phpSysInfo, phpMyFAQ, Bftpd. *)

val findable :
  ?backend:Shift_tracking.Backend.t -> Shift_compiler.Mode.t -> Attack_case.t list
(** Every case {!find} searches, in lookup order: {!all}, the
    {!extended} cases, {!multiproc} and {!sidechannel}.  The plugin host
    is built for the image that runs under [mode] and [backend] (default
    nat); every other case is the one value that owns its image cache. *)

val find :
  ?backend:Shift_tracking.Backend.t ->
  ?mode:Shift_compiler.Mode.t ->
  string ->
  Attack_case.t option
(** Look up by [program_name] prefix (case-insensitive) in
    {!findable}[ ?backend mode] ([mode] defaults to word).  Every lookup
    of a name returns a case with the same image cache. *)

val multiproc : Attack_case.t list
(** Cross-process scenarios under the multi-process OS personality:
    CGI command injection detected in the forked shell, and a
    tar|gzip pipeline traversal detected in the exec'd compressor.
    Run them through {!Attack_case.config}/{!Attack_case.run}, which
    bring the process table and aux images along. *)

val sidechannel : Attack_case.t list
(** Side-channel cases for the leakage detector ({!Shift.Leak}): the
    lookup-table AES toy kernel that leaks key bytes through cache-set
    indexes, and its constant-time rewrite that must come back clean.
    Both carry [variants] and raise no taint alert. *)

val extended : mode:Shift_compiler.Mode.t -> Attack_case.t list
(** Extension cases beyond Table 2, covering the Table-1 policies
    without a Table-2 row: H4 (command injection) and L3 (control-flow
    hijack through a tainted function pointer).  The L3 case embeds
    real code addresses, so it is built per compilation mode (for the
    nat backend). *)
