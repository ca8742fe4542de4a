(** A security-evaluation case (one row of the paper's Table 2).

    Each case is a guest program with the same vulnerability class as
    the real CVE it stands in for, a benign input under which the
    program must run cleanly (no false positive), and a forged exploit
    input under which the listed policy must fire. *)

type t = {
  cve : string;               (** CVE identifier, or "N/A" *)
  program_name : string;      (** e.g. "GNU Tar (1.4)" *)
  language : string;          (** language of the original program *)
  attack_type : string;       (** e.g. "Directory Traversal" *)
  detection_policies : string;(** Table-2 "Detection Policies" column *)
  expected_policy : string;   (** the alert the exploit must raise *)
  program : Ir.program;
  policy : Shift_policy.Policy.t;
  benign : Shift_os.World.t -> unit;   (** benign-input world setup *)
  exploit : Shift_os.World.t -> unit;  (** exploit-input world setup *)
  provenance : (string * int * int) option;
      (** Expected provenance of the exploit bytes when the case is run
          with {!Shift_machine.Flowtrace} at byte granularity:
          [(channel, lo, hi)] means the alert's chain must contain the
          hop ["input <channel>[<lo>..<hi>] via ..."] — the inclusive
          input-stream offsets of the attacker-controlled fragment. *)
  images : (string * Ir.program) list;
      (** auxiliary programs the guest may [sys_exec] by name —
          multi-process cases only, [[]] otherwise *)
  multiproc : string option;
      (** [Some comm] runs the case under the multi-process OS
          personality with pid 1 named [comm]; [None] (all Table-2
          rows) keeps the classic single-process shape *)
  variants : (int -> Shift_os.World.t -> unit) option;
      (** Input variants for the leak detector ({!Shift.Leak}):
          [variants i] is a complete world setup whose tainted bytes —
          and nothing else — differ with [i] (variant 0 is the
          baseline).  [None] for cases with no side-channel story. *)
  cache : Shift.Session.image_cache;
      (** The case's compiled images, main and aux, one per build key:
          give every case its own ({!Shift.Session.image_cache}), so
          its benign and exploit runs, repeat requests and leak
          variants share one image and its warm blocks. *)
}

(** {1 Session plumbing}

    Every front end (CLI, serve catalogue, tests) goes through these so
    a case's machine shape — threading, aux images — cannot drift
    between entry points. *)

val config :
  ?trace:Shift_machine.Flowtrace.options ->
  ?hwtrace:bool ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  input:(Shift_os.World.t -> unit) ->
  t ->
  Shift.Session.Config.t
(** The session configuration for running [t] under [input] (pass
    [t.benign] or [t.exploit]): its policy, machine shape and compiled
    aux images, built through the case's [cache].  For a single-process
    case this is byte-identical to the config the pre-multiprocess front
    ends built. *)

val image :
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  t ->
  Shift_compiler.Image.t
(** The case's main program, compiled like the CLI compiles it; a
    repeat call with the same [backend] and effective mode returns the
    same image from the case's [cache]. *)

val run :
  ?trace:Shift_machine.Flowtrace.options ->
  ?superblocks:bool ->
  ?backend:Shift_tracking.Backend.t ->
  mode:Shift_compiler.Mode.t ->
  input:(Shift_os.World.t -> unit) ->
  t ->
  Shift.Report.t
(** Build and execute the case in one step. *)
