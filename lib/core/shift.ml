(** The public face of the library.

    {!Session} compiles and runs guest programs; {!Report} is what you
    get back.  The remaining aliases re-export the pieces a user needs
    to configure a run without hunting through the sub-libraries:

    {[
      let report =
        Shift.Session.exec
          ~config:
            (Shift.Session.Config.make
               ~policy:{ Shift.Policy.default with h3 = true }
               ~setup:(fun world -> Shift.World.queue_request world payload)
               ())
          (Shift.Session.build ~mode:Shift.Mode.shift_word my_program)
      in
      match report.Shift.Report.outcome with
      | Shift.Report.Alert a -> handle a
      | _ -> ...
    ]} *)

module Session = Session
module Report = Report

(** Machine-readable (JSON) results for the benchmark harness. *)
module Results = Results

(** The domain pool behind every parallel grid (deterministic result
    ordering). *)
module Pool = Pool

(** Batch sessions: N independent runs across domains with a
    deterministic aggregate report. *)
module Fleet = Fleet

(** Deterministic checkpoint images of live sessions
    ([Session.checkpoint] / [Session.restore]). *)
module Snapshot = Snapshot

(** The [shiftc serve] wire protocol (versioned JSONL). *)
module Protocol = Protocol

(** The resident service: scheduler, socket server, client. *)
module Serve = Serve

(** The resumable execution engine sessions are driven through. *)
module Exec = Shift_machine.Exec

(** Taint-provenance tracking: sources, propagation events, chains. *)
module Flowtrace = Shift_machine.Flowtrace

(** Taint-tracking backend selection: on-core [nat] (the paper),
    decoupled [coproc], uninstrumented [none]. *)
module Backend = Shift_tracking.Backend

(** The tracking-backend runtime: tag-queue records, lag model,
    per-backend source/check gating. *)
module Tracking = Shift_tracking.Tracking

(** Deterministic JSONL export of a flow trace. *)
module Flow = Flow

(** The cache-set observation trace (the side-channel "hardware
    trace"). *)
module Hwtrace = Shift_machine.Hwtrace

(** The speculation-contract leakage detector: differential runs over
    tainted-byte variants, divergences named via provenance. *)
module Leak = Leak

(** Compilation / instrumentation modes. *)
module Mode = Shift_compiler.Mode

(** Security-policy configuration (paper Table 1). *)
module Policy = Shift_policy.Policy

module Alert = Shift_policy.Alert

(** The simulated OS: files, network, taint sources, sinks. *)
module World = Shift_os.World

(** Compiled executable images. *)
module Image = Shift_compiler.Image

(** Taint granularity (byte or word). *)
module Granularity = Shift_mem.Granularity
