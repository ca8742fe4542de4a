(** The speculation-contract leakage detector.

    A contract clause fixes what a cache-timing attacker observes about
    an execution; the detector re-runs a session under input variants
    that differ only in tainted bytes and flags any clause-visible
    divergence of the hardware trace ({!Shift_machine.Hwtrace}) — a
    secret-dependent cache footprint that NaT-based DIFT alone never
    sees.  Every engine in the repository is deterministic, so a
    divergence is attributable to the changed (tainted) bytes, and the
    diverging access is named precisely: pc, both set indexes, and the
    input bytes its address carried via Flowtrace provenance. *)

(** What the attacker observes. *)
type clause =
  | Ct_seq
      (** the sequence of load/store cache-set indexes is observable
          (the constant-time contract: any divergence is a leak) *)
  | Ct_none  (** nothing is observable; no program ever leaks *)

val clause_to_string : clause -> string
(** ["ct-seq"] / ["ct-none"]. *)

val clause_of_string : string -> (clause, string) result

type divergence = {
  d_variant : int;  (** variant whose observation split from the baseline *)
  d_index : int;  (** index of the first diverging access *)
  d_pc : int;  (** guest pc of that access *)
  d_store : bool;
  d_set_base : int;  (** set index in the baseline; -1 = access absent *)
  d_set_variant : int;  (** set index in the variant; -1 = access absent *)
  d_tainted : string list;
      (** provenance of the diverging access's address:
          ["input <channel>[<off>] via <origin>"] hops naming the exact
          tainted input bytes, when the session was flow-traced *)
}

type verdict = {
  v_clause : clause;
  v_variants : int;
  v_accesses : int;  (** baseline accesses visible under the clause *)
  v_dropped : int;  (** baseline accesses past the trace limit *)
  v_leak : bool;
  v_divergence : divergence option;  (** present exactly when [v_leak] *)
}

val detect :
  ?clause:clause -> count:int -> start:(int -> Session.live) -> unit -> verdict
(** [detect ~count ~start ()] starts [count] variant sessions ([start i]
    for [i = 0..count-1]; variant 0 is the baseline), runs each to
    completion, and compares observations under [clause] (default
    {!Ct_seq}).  Every session [start] returns must have
    [Config.hwtrace] on.

    Two passes.  The observation pass switches each session's Flowtrace
    off before it runs: the baseline records its hardware trace, and
    every later variant only follows it
    ({!Shift_machine.Hwtrace.follow}), storing no entries.  A variant
    diverges when an access both runs made differs in (store, set), or
    when the runs made different numbers of accesses.  The explanation
    pass runs only for the first variant that diverges: it calls
    [start 0] and [start i] again, runs both as [start] configured them,
    and names the first diverging access from their full traces.
    Flowtrace is read only there, so enable [Config.trace] if the
    verdict should name tainted bytes.  [start] is called [count] times
    for a clean verdict and [count + 2] times at most for a leak.
    @raise Invalid_argument if [count < 2] or a variant session records
    no hardware trace.
    @raise Failure if [start] is not deterministic: the re-run traced
    pair does not diverge although the observation pass saw it. *)

val verdict_to_json : verdict -> Results.json

val trace_jsonl : Session.live -> string
(** The session's hardware trace as JSONL, newline-terminated: one
    minified object per recorded access ([i], [pc], [set], [hit],
    [kind], and [tainted_by] hops when the address carried provenance).
    Deterministic; written field by field into one buffer sized from
    the entry count, with the {!Results.add_int} and
    {!Results.add_escaped} helpers {!Flow.jsonl} uses. *)

val observation_digest : Shift_machine.Hwtrace.t -> string
(** Stable 16-hex-digit digest of the ct-seq-visible observation, for
    cheap identity assertions (superblocks on vs off) in bench output. *)

val pp_verdict : Format.formatter -> verdict -> unit
