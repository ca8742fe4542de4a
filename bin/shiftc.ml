(* shiftc: command-line driver for the SHIFT reproduction.

   - [shiftc list]                      what's runnable
   - [shiftc run gzip --mode word]      run a kernel, print the report
   - [shiftc batch -j 4]                run the kernel suite as a fleet
   - [shiftc attack tar --exploit]      run a Table-2 case
   - [shiftc httpd --size 4096]         run the web-server workload
   - [shiftc disasm gzip --mode word]   instrumented listing
   - [shiftc policies]                  the policy catalogue

   Every run-like command takes [--json] to emit the report through
   lib/core/results (the bench JSON schema) instead of pretty text. *)

open Cmdliner
module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec
module Httpd = Shift_workloads.Httpd
module Policy = Shift_policy.Policy
module Case = Shift_attacks.Attack_case
module Stats = Shift_machine.Stats

(* ---------- shared options ---------- *)

(* mode spellings are parsed by Mode.of_string — one parser shared with
   the serve wire protocol, so the CLI and the daemon can never drift *)
let mode_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Mode.of_string s)),
      fun ppf m -> Mode.pp ppf m )

let mode_arg =
  Arg.(
    value
    & opt mode_conv Mode.shift_word
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Compilation mode: $(b,none), $(b,word), $(b,byte), optionally with \
           +setclr/+tacmp/+both architectural enhancements, or $(b,dbt) for \
           the software baseline.")

(* backend spellings are parsed by Backend.of_string — the same single
   name table the serve wire protocol and the catalog use *)
let backend_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (Shift.Backend.of_string s)),
      fun ppf b -> Shift.Backend.pp ppf b )

let backend_arg =
  Arg.(
    value
    & opt backend_conv Shift.Backend.default
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Taint-tracking backend: $(b,nat) (on-core NaT reuse, the paper's \
           design and the default), $(b,coproc) (a decoupled tag coprocessor \
           draining a bounded propagation queue, so checks resolve with a \
           measurable lag), or $(b,none) (uninstrumented baseline).  \
           Non-nat backends run the guest uninstrumented regardless of \
           $(b,--mode).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the run's report as JSON via the bench results schema \
           instead of pretty-printed text.")

let no_superblocks_arg =
  Arg.(
    value & flag
    & info [ "no-superblocks" ]
        ~doc:
          "Run on the pure interpreter, never compiling hot regions to \
           superblocks.  On and off are observationally identical — same \
           counters, alerts, traces and JSON — so this is an escape hatch \
           for differential testing and debugging, not a semantic knob.")

let sb_stats_arg =
  Arg.(
    value & flag
    & info [ "sb-stats" ]
        ~doc:
          "Print the host-side superblock-compiler counters (blocks \
           compiled, cache hits/misses, invalidations, interpreter-fallback \
           instructions) after the report.  With $(b,--json) they form a \
           separate trailing JSON line, so the report itself stays \
           byte-identical with and without $(b,--no-superblocks).")

let sb_stats_json (sb : Stats.superblocks) =
  Shift.Results.Obj
    [
      ( "superblocks",
        Shift.Results.Obj
          [
            ("compiled", Shift.Results.Int sb.Stats.sb_compiled);
            ("hits", Shift.Results.Int sb.Stats.sb_hits);
            ("misses", Shift.Results.Int sb.Stats.sb_misses);
            ("invalidations", Shift.Results.Int sb.Stats.sb_invalidations);
            ("fallback", Shift.Results.Int sb.Stats.sb_fallback);
          ] );
    ]

let print_sb_stats ~json sb =
  if json then print_endline (Shift.Results.to_string (sb_stats_json sb))
  else Format.printf "superblocks:  %a@." Stats.pp_superblocks sb

let print_json (r : Shift.Report.t) =
  print_endline (Shift.Results.to_string (Shift.Results.of_report r))

let print_report (r : Shift.Report.t) =
  Format.printf "outcome:      %a@." Shift.Report.pp_outcome r.Shift.Report.outcome;
  List.iter
    (fun a -> Format.printf "logged alert: %s@." (Shift_policy.Alert.to_string a))
    r.Shift.Report.logged;
  let s = r.Shift.Report.stats in
  Format.printf "instructions: %d@.cycles:       %d@.loads/stores: %d/%d@."
    s.Stats.instructions s.Stats.cycles s.Stats.loads s.Stats.stores;
  Format.printf "io cycles:    %d@." s.Stats.io_cycles;
  Format.printf "cache:        %d hits / %d misses (%.1f%% hit rate)@."
    r.Shift.Report.cache_hits r.Shift.Report.cache_misses
    (100.0 *. Shift.Report.cache_hit_rate r);
  let instr = Stats.instrumentation_slots s in
  if instr > 0 then
    Format.printf "instrumentation slots: %d (%.1f%% of issue slots)@." instr
      (100.0 *. float_of_int instr /. float_of_int (Stats.total_slots s));
  if String.length r.Shift.Report.output > 0 then
    Format.printf "guest output (%d bytes):@.%s@."
      (String.length r.Shift.Report.output)
      (if String.length r.Shift.Report.output > 2048 then
         String.sub r.Shift.Report.output 0 2048 ^ "..."
       else r.Shift.Report.output)

(* ---------- job requests ---------- *)

module Protocol = Shift.Protocol
module Serve = Shift.Serve
module Fleet = Shift.Fleet
module Session = Shift.Session

let name_arg docv doc = Arg.(required & pos 0 (some string) None & info [] ~docv ~doc)

let size_arg =
  Arg.(
    value & opt (some int) None
    & info [ "size" ] ~docv:"BYTES" ~doc:"Input size (default: each kernel's).")

let safe_arg = Arg.(value & flag & info [ "safe" ] ~doc:"Leave the input files untainted.")

let benign_arg =
  Arg.(
    value & flag
    & info [ "benign" ]
        ~doc:"For attack cases: use the benign input instead of the exploit.")

(* A job request's arguments, declared once for the one-shot command and
   its client twin: the kind's name and own options, then --mode,
   --no-superblocks and --backend.  The request is range-checked by
   [Protocol.check], as the wire checks it. *)
let request_term body =
  let make body mode no_sb backend =
    Protocol.check (body ~mode ~superblocks:(not no_sb) ~backend)
  in
  Term.(const make $ body $ mode_arg $ no_superblocks_arg $ backend_arg)

let run_request =
  request_term
    Term.(
      const (fun kernel size safe ~mode ~superblocks ~backend ->
          Protocol.Run { kernel; mode; size; safe; superblocks; backend })
      $ name_arg "KERNEL" "Kernel name." $ size_arg $ safe_arg)

let attack_request =
  request_term
    Term.(
      const (fun case benign ~mode ~superblocks ~backend ->
          Protocol.Attack { case; mode; benign; superblocks; backend })
      $ name_arg "NAME" "Attack case (prefix of the program name)." $ benign_arg)

let trace_request =
  let ring_arg =
    Arg.(
      value & opt int 4096
      & info [ "ring" ] ~docv:"N"
          ~doc:"Capacity of the event ring buffer (older events are dropped).")
  in
  let events_arg =
    Arg.(
      value & opt (some string) None
      & info [ "events" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated event kinds to record \
             (birth,load,prop,store,purge,check,sink); default all.")
  in
  request_term
    Term.(
      const (fun image benign ring only ~mode ~superblocks ~backend ->
          Protocol.Trace { image; mode; benign; ring; only; superblocks; backend })
      $ name_arg "IMAGE"
          "What to trace: an attack case (prefix of the program name) or a kernel."
      $ benign_arg $ ring_arg $ events_arg)

let batch_request =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"KERNEL" ~doc:"Kernels to batch (default: the whole suite).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Rerun a crashed job up to $(docv) extra times (from its last \
             checkpoint when one was taken).")
  in
  request_term
    Term.(
      const (fun kernels size safe retries ~mode ~superblocks ~backend ->
          Protocol.Batch { kernels; mode; size; safe; retries; superblocks; backend })
      $ names_arg $ size_arg $ safe_arg $ retries_arg)

let leak_request =
  let clause_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Shift.Leak.clause_of_string s)),
        fun ppf c -> Format.pp_print_string ppf (Shift.Leak.clause_to_string c) )
  in
  let clause_arg =
    Arg.(
      value & opt clause_conv Shift.Leak.Ct_seq
      & info [ "clause" ] ~docv:"CLAUSE"
          ~doc:
            "Speculation-contract clause fixing what the attacker observes: \
             $(b,ct-seq) (the cache-set sequence) or $(b,ct-none) (nothing).")
  in
  let variants_arg =
    Arg.(
      value & opt int 4
      & info [ "variants" ] ~docv:"N"
          ~doc:
            "Input variants to compare (at least 2); they differ only in the \
             case's tainted bytes, variant 0 is the baseline.")
  in
  request_term
    Term.(
      const (fun case clause variants ~mode ~superblocks ~backend ->
          Protocol.Leak { case; mode; clause; variants; superblocks; backend })
      $ name_arg "CASE"
          "Side-channel case (prefix of the program name, e.g. aes-table or \
           aes-ct)."
      $ clause_arg $ variants_arg)

(* Resolve a checked request through the catalogue — the one the daemon
   serves — and hand [k] the request with the work it resolved to.  The
   catalogue answers each kind with one shape of work: [Job] for
   run/attack/trace, [Jobs] for batch, [Probe] for leak. *)
let resolved request k =
  match
    Result.bind request (fun r ->
        Result.map (fun work -> (r, work)) (Shift_catalog.Catalog.standard r))
  with
  | Ok (request, work) -> k request work
  | Error e ->
      prerr_endline e;
      1

let to_end live =
  match Session.advance live ~budget:max_int with `Finished _ | `Yielded -> ()

(* ---------- commands ---------- *)

let list_cmd =
  let run () =
    print_endline "kernels (shiftc run NAME):";
    List.iter
      (fun (k : Spec.kernel) ->
        Printf.printf "  %-8s %s (default input %d bytes)\n" k.Spec.name
          k.Spec.description k.Spec.default_size)
      Spec.all;
    print_endline
      "attack cases (shiftc attack/trace NAME; shiftc leak takes the AES cases):";
    List.iter
      (fun (c : Case.t) ->
        Printf.printf "  %-24s %-22s %s\n" c.Case.program_name c.Case.attack_type
          c.Case.cve)
      (Shift_attacks.Attacks.findable Mode.shift_word);
    print_endline "other: shiftc batch (the kernel suite as a fleet), shiftc httpd";
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List runnable kernels and attack cases")
    Term.(const run $ const ())

let run_cmd =
  let every_arg =
    Arg.(
      value & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint the session to $(b,--checkpoint-file) after every \
             $(docv) executed instructions.  Slicing never changes the \
             result: counters are byte-identical however a run is cut.")
  in
  let file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-file" ] ~docv:"FILE"
          ~doc:"Where to write checkpoints (required with --checkpoint-every).")
  in
  let limit_arg =
    Arg.(
      value & opt (some int) None
      & info [ "checkpoint-limit" ] ~docv:"K"
          ~doc:
            "Stop mid-flight after writing the $(docv)-th checkpoint and \
             exit with status 3, leaving the run resumable with \
             $(b,shiftc resume) — a deterministic stand-in for a crash.")
  in
  let run request json every file limit sb_stats =
    resolved request (fun request work ->
        match (request, work) with
        | Protocol.Run { mode; backend; _ }, Serve.Job job -> (
            let mode = Session.effective_mode ~backend mode in
            let finish live =
              let r = Session.report live in
              if json then print_json r
              else begin
                Format.printf "kernel %s under %a@." (Fleet.name job) Mode.pp mode;
                print_report r
              end;
              if sb_stats then print_sb_stats ~json (Session.superblock_stats live);
              0
            in
            match (every, file) with
            | None, _ ->
                let live = Fleet.start job in
                to_end live;
                finish live
            | Some _, None ->
                prerr_endline "--checkpoint-every requires --checkpoint-file";
                1
            | Some n, Some path when n > 0 ->
                let meta =
                  [ ("kernel", Fleet.name job); ("mode", Format.asprintf "%a" Mode.pp mode) ]
                in
                let live = Fleet.start job in
                let written = ref 0 in
                let rec loop () =
                  match Session.advance live ~budget:n with
                  | `Finished _ -> finish live
                  | `Yielded ->
                      Shift.Snapshot.save path (Session.checkpoint ~meta live);
                      incr written;
                      if match limit with Some k -> !written >= k | None -> false
                      then begin
                        Printf.eprintf
                          "checkpoint limit reached after %d checkpoints; resume \
                           with: shiftc resume %s\n"
                          !written path;
                        3
                      end
                      else loop ()
                in
                loop ()
            | Some _, Some _ ->
                prerr_endline "--checkpoint-every must be positive";
                1)
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a SPEC-like kernel on the simulated machine")
    Term.(const run $ run_request $ json_arg $ every_arg $ file_arg $ limit_arg $ sb_stats_arg)

let resume_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A snapshot written by shiftc run --checkpoint-file.")
  in
  let run path json =
    match Shift.Snapshot.load path with
    | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        1
    | Ok snap ->
        let live = Session.restore snap in
        to_end live;
        let r = Session.report live in
        if json then print_json r
        else begin
          List.iter
            (fun (k, v) -> Format.printf "%s: %s@." k v)
            snap.Shift.Snapshot.meta;
          print_report r
        end;
        0
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Restore a checkpointed session and run it to completion.  The \
          snapshot is self-contained (it embeds the compiled image), and the \
          resumed run's report is byte-identical to an unbroken run's.")
    Term.(const run $ file_arg $ json_arg)

let batch_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains to run the sessions on (0 = the runtime's \
             recommendation).  The aggregate output is byte-identical at \
             any $(docv).")
  in
  let every_arg =
    Arg.(
      value & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Drive each session in $(docv)-instruction slices and keep an \
             in-memory checkpoint refreshed for crash recovery.")
  in
  let poison_arg =
    Arg.(
      value & flag
      & info [ "poison" ]
          ~doc:
            "Append a job whose image thunk raises, to demonstrate that the \
             supervisor contains the crash while every other job still \
             completes.")
  in
  let run request domains json every poison =
    resolved request (fun request work ->
        match (request, work) with
        | Protocol.Batch { mode; backend; _ }, Serve.Jobs { jobs; retries } ->
            let all =
              if poison then
                jobs
                @ [
                    Fleet.job ~name:"poisoned" (fun () ->
                        failwith "poisoned job: image thunk raised");
                  ]
              else jobs
            in
            let fleet = Fleet.run ~domains ~retries ?checkpoint_every:every all in
            if json then print_endline (Shift.Results.to_string (Fleet.to_json fleet))
            else begin
              Format.printf "batch: %d sessions under %a@." (List.length all) Mode.pp
                (Session.effective_mode ~backend mode);
              Format.printf "%a@." Fleet.pp fleet
            end;
            if fleet.Fleet.exited = List.length jobs then 0 else 1
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run many kernel sessions as a supervised fleet across domains with \
          a deterministic aggregate report")
    Term.(const run $ batch_request $ jobs_arg $ json_arg $ every_arg $ poison_arg)

let attack_cmd =
  let run request json =
    resolved request (fun request work ->
        match (request, work) with
        | Protocol.Attack { mode; benign; _ }, Serve.Job job ->
            let live = Fleet.start job in
            to_end live;
            let r = Session.report live in
            if json then print_json r
            else begin
              (* the case is looked up again for its header only *)
              let c = Option.get (Shift_attacks.Attacks.find (Fleet.name job)) in
              Format.printf "%s (%s) — %s input under %a@." c.Case.program_name
                c.Case.cve
                (if benign then "benign" else "exploit")
                Mode.pp mode;
              Format.printf "policies: %s@." c.Case.detection_policies;
              print_report r
            end;
            0
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a Table-2 security-evaluation case")
    Term.(const run $ attack_request $ json_arg)

let httpd_cmd =
  let size_arg =
    Arg.(value & opt int 4096 & info [ "size" ] ~docv:"BYTES" ~doc:"Static file size.")
  in
  let requests_arg =
    Arg.(
      value & opt int 10
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "GET requests queued up front for the server to process (the \
             workload replays a canned request stream through the resumable \
             engine; it does not listen for live connections).")
  in
  let workers_arg =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker-process mode: the master forks $(docv) workers (clamped \
             to 1..8) that drain the shared request queue under the \
             multi-process OS personality; the master reaps them and exits \
             with the total served.  Incompatible with $(b,--backend coproc).")
  in
  let run mode file_size requests json backend workers =
    if workers <> None && backend = Shift.Backend.Coproc then begin
      prerr_endline "httpd: --workers is incompatible with --backend coproc";
      1
    end
    else begin
      (* driven through the resumable engine in bounded slices, not one
         monolithic run — same counters either way *)
      let r = Httpd.serve ~mode ~file_size ~requests ~backend ?workers () in
      if json then print_json r
      else begin
        Format.printf "httpd%s: %d requests of a %d-byte file under %a@."
          (match workers with
          | Some w -> Printf.sprintf " (%d workers)" w
          | None -> "")
          requests file_size Mode.pp mode;
        let s = r.Shift.Report.stats in
        Format.printf "outcome: %a; cycles/request: %d@." Shift.Report.pp_outcome
          r.Shift.Report.outcome (s.Stats.cycles / max requests 1)
      end;
      0
    end
  in
  Cmd.v
    (Cmd.info "httpd" ~doc:"Run the web-server workload (the Figure-6 substrate)")
    Term.(
      const run $ mode_arg $ size_arg $ requests_arg $ json_arg $ backend_arg
      $ workers_arg)

let disasm_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")
  in
  let run name mode backend =
    match Spec.find name with
    | None ->
        Printf.eprintf "unknown kernel %S; see `shiftc list`\n" name;
        1
    | Some k ->
        let image = Shift.Session.build ~backend ~mode k.Spec.program in
        Format.printf "%a@." Shift_isa.Program.pp_listing
          image.Shift_compiler.Image.program;
        0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print the (instrumented) listing of a kernel")
    Term.(const run $ name_arg $ mode_arg $ backend_arg)

let trace_cmd =
  let run request json =
    resolved request (fun request work ->
        match (request, work) with
        | Protocol.Trace { mode; backend; _ }, Serve.Job job ->
            let mode = Session.effective_mode ~backend mode in
            let live = Fleet.start job in
            to_end live;
            let report = Session.report live in
            let ft = Option.get (Session.flowtrace live) in
            if json then
              print_string
                (Shift.Flow.jsonl
                   ~meta:
                     [
                       ("image", Shift.Results.String (Fleet.name job));
                       ("mode", Shift.Results.String (Format.asprintf "%a" Mode.pp mode));
                     ]
                   ~outcome:report.Shift.Report.outcome ft)
            else begin
              Format.printf "flow trace of %s under %a@." (Fleet.name job) Mode.pp mode;
              Format.printf "%a@." Shift.Flow.pp ft;
              Format.printf "outcome: %a@." Shift.Report.pp_outcome
                report.Shift.Report.outcome
            end;
            0
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an attack case or kernel with Flowtrace enabled and dump the \
          taint-flow events (JSONL with --json)")
    Term.(const run $ trace_request $ json_arg)

let leak_cmd =
  let trace_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write the baseline variant's hardware trace to $(docv) as \
             JSONL (one access per line, tainted accesses marked).")
  in
  let run request json trace_out =
    resolved request (fun request work ->
        match (request, work) with
        | Protocol.Leak { case; mode; _ }, Serve.Probe { start; clause; variants } ->
            let verdict = Shift.Leak.detect ~clause ~count:variants ~start () in
            (match trace_out with
            | None -> ()
            | Some file ->
                (* the detector does not keep its variant sessions; re-run
                   the (deterministic) baseline for the exportable trace *)
                let live = start 0 in
                to_end live;
                let oc = open_out file in
                output_string oc (Shift.Leak.trace_jsonl live);
                close_out oc);
            if json then
              print_endline (Shift.Results.to_string (Shift.Leak.verdict_to_json verdict))
            else begin
              Format.printf "leak probe of %s under %a@." case Mode.pp mode;
              Format.printf "%a@." Shift.Leak.pp_verdict verdict
            end;
            0
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "leak"
       ~doc:
         "Probe an attack case for cache side-channel leaks: re-run it under \
          inputs differing only in tainted bytes and flag any \
          contract-visible divergence of the hardware trace")
    Term.(const run $ leak_request $ json_arg $ trace_out_arg)

let exec_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A tinyc source file (see lib/ir/parse.mli).")
  in
  let taint_file_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "file" ] ~docv:"PATH=CONTENT"
          ~doc:"Install a (tainted) file into the guest's file system; repeatable.")
  in
  let request_arg =
    Arg.(
      value & opt_all string []
      & info [ "request" ] ~docv:"PAYLOAD"
          ~doc:"Queue a network connection the guest can accept; repeatable.")
  in
  let threads_arg =
    Arg.(
      value & flag
      & info [ "threads" ]
          ~doc:"Run with SMP support so the guest may sys_spawn/sys_join.")
  in
  let run path mode files requests threads =
    match Parse.program_of_file path with
    | exception Parse.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        1
    | prog -> (
        let policy = { Policy.default with Policy.taint_files = true } in
        let setup w =
          List.iter (fun (p, c) -> Shift_os.World.add_file w p c) files;
          List.iter (Shift_os.World.queue_request w) requests
        in
        let threading =
          if threads then Shift.Session.Config.Threads { quantum = None }
          else Shift.Session.Config.Single
        in
        let config = Shift.Session.Config.make ~policy ~setup ~threading () in
        match Shift.Session.exec ~config (Shift.Session.build ~mode prog) with
        | r ->
            print_report r;
            0
        | exception Shift_compiler.Compile.Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            1)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Compile and run a tinyc source file under SHIFT")
    Term.(const run $ file_arg $ mode_arg $ taint_file_arg $ request_arg $ threads_arg)

let policies_cmd =
  let run () =
    List.iter print_endline (Policy.describe (Policy.all_on ~document_root:"<root>"));
    0
  in
  Cmd.v (Cmd.info "policies" ~doc:"Show the policy catalogue (paper Table 1)")
    Term.(const run $ const ())

(* ---------- the resident service ---------- *)

let socket_arg =
  Arg.(
    value
    & opt string Serve.Server.default_config.Serve.Server.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "workers" ] ~docv:"N"
          ~doc:
            "Worker domains driving the admitted sessions (0 = the runtime's \
             recommendation).  Results are byte-identical at any $(docv).")
  in
  let slice_arg =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.slice
      & info [ "slice" ] ~docv:"N"
          ~doc:
            "Engine budget per advance, in instructions.  Slicing never \
             changes results: counters are byte-identical however a session \
             is cut.")
  in
  let max_bytes_arg =
    Arg.(
      value & opt int Protocol.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Cap on one request line's length, advertised in the hello ack; \
             longer lines are refused with the $(b,oversized) error.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Spill each parked session's snapshot to $(docv)/job-N.snap.json \
             (removed when the job completes) so orphaned work survives a \
             daemon crash and can be picked up with $(b,shiftc resume).")
  in
  let migrate_arg =
    Arg.(
      value & opt (some int) None
      & info [ "migrate-every" ] ~docv:"SLICES"
          ~doc:
            "Default migration cadence: checkpoint each session and hand it \
             to another worker every $(docv) slices, for requests that do \
             not choose their own.  Migration never changes results.")
  in
  let run socket workers slice max_bytes checkpoint_dir migrate =
    let config =
      {
        Serve.Server.socket_path = socket;
        workers;
        slice;
        max_request_bytes = max_bytes;
        checkpoint_dir;
        migrate_every = migrate;
      }
    in
    Serve.Server.run
      ~on_ready:(fun c ->
        Printf.eprintf "shiftc serve: listening on %s\n%!"
          c.Serve.Server.socket_path)
      ~catalog:Shift_catalog.Catalog.standard config;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident taint-tracking service: admit jobs over a \
          Unix-domain socket (versioned JSONL, see docs/PROTOCOL.md) and \
          drive their sessions in engine slices on a resident domain pool, \
          with deadlines, crash retries and live migration.  Serves until a \
          drain request completes.")
    Term.(
      const run $ socket_arg $ workers_arg $ slice_arg $ max_bytes_arg
      $ checkpoint_dir_arg $ migrate_arg)

(* ---------- the client ---------- *)

(* run one request against the daemon and render the response.

   [project] picks the payload to print from a successful response's
   ["result"]: job commands print result.report (byte-identical to the
   one-shot command's --json output — the determinism gate cmp's the
   two), batch prints the whole aggregate, status/drain the result
   itself.  [--raw] prints the response line as it came off the wire. *)
let client_round ~socket ~raw ~project env =
  match Serve.Client.connect socket with
  | Error e ->
      prerr_endline e;
      1
  | Ok c ->
      let outcome =
        match Serve.Client.request c env with
        | Error e ->
            prerr_endline e;
            1
        | Ok json when raw ->
            print_endline (Protocol.to_line json);
            if Protocol.response_ok json then 0 else 1
        | Ok json when not (Protocol.response_ok json) ->
            (* a refusal prints its message, as the one-shot command does *)
            (match
               Option.bind (Shift.Results.member "error" json) (Shift.Results.member "message")
             with
            | Some (Shift.Results.String message) -> prerr_endline message
            | _ -> prerr_endline (Protocol.to_line json));
            1
        | Ok json -> (
            match Shift.Results.member "result" json with
            | None ->
                prerr_endline "malformed response: no \"result\" field";
                1
            | Some result -> (
                match project result with
                | Some payload ->
                    print_endline (Shift.Results.to_string payload);
                    0
                | None ->
                    prerr_endline "malformed response: unexpected result shape";
                    1))
      in
      Serve.Client.close c;
      outcome

let whole_result = Option.some
let report_field r = Shift.Results.member "report" r

let tenant_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant label echoed in the response (multi-tenant bookkeeping).")

let deadline_arg =
  Arg.(
    value & opt (some int) None
    & info [ "deadline" ] ~docv:"FUEL"
        ~doc:
          "Per-request fuel deadline: the session's instruction budget is \
           capped at $(docv), timing out runaway guests.")

let migrate_every_arg =
  Arg.(
    value & opt (some int) None
    & info [ "migrate-every" ] ~docv:"SLICES"
        ~doc:
          "Checkpoint the session and hand it to another worker every \
           $(docv) slices.  Migration never changes the result.")

let id_arg =
  Arg.(
    value & opt (some string) None
    & info [ "id" ] ~docv:"ID"
        ~doc:
          "Request id echoed in the response (default: derived from the \
           request).")

let raw_arg =
  Arg.(
    value & flag
    & info [ "raw" ]
        ~doc:"Print the raw response line instead of the projected result.")

let envelope ?id ?tenant ?deadline ?migrate_every request =
  { Protocol.id; tenant; deadline; migrate_every; request }

(* the id a job request goes out under unless --id names one *)
let default_id request =
  let kind = Protocol.kind_of_request request in
  match request with
  | Protocol.Run { kernel = name; _ }
  | Protocol.Attack { case = name; _ }
  | Protocol.Trace { image = name; _ }
  | Protocol.Leak { case = name; _ } ->
      kind ^ ":" ^ name
  | Protocol.Batch _ | Protocol.Status | Protocol.Drain -> kind

(* a one-shot command's client twin: the same request term, wrapped in
   an envelope and sent to the daemon *)
let client_job_cmd name ~doc ~project request =
  let run socket raw id tenant deadline migrate_every request =
    match request with
    | Error e ->
        prerr_endline e;
        1
    | Ok request ->
        client_round ~socket ~raw ~project
          (envelope
             ~id:(Option.value id ~default:(default_id request))
             ?tenant ?deadline ?migrate_every request)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ socket_arg $ raw_arg $ id_arg $ tenant_arg $ deadline_arg
      $ migrate_every_arg $ request)

let client_status_cmd =
  let run socket raw id tenant =
    client_round ~socket ~raw ~project:whole_result
      (envelope ?id ?tenant Protocol.Status)
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Print the daemon's scheduler counters")
    Term.(const run $ socket_arg $ raw_arg $ id_arg $ tenant_arg)

let client_drain_cmd =
  let run socket raw id tenant =
    client_round ~socket ~raw ~project:whole_result
      (envelope ?id ?tenant Protocol.Drain)
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:
         "Stop admission, wait for in-flight jobs to finish, then shut the \
          daemon down")
    Term.(const run $ socket_arg $ raw_arg $ id_arg $ tenant_arg)

let client_raw_cmd =
  let line_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"JSON" ~doc:"One request line, sent verbatim after the hello.")
  in
  let run socket line =
    match Serve.Client.connect socket with
    | Error e ->
        prerr_endline e;
        1
    | Ok c ->
        let outcome =
          match Serve.Client.send_line c line with
          | Error e ->
              prerr_endline e;
              1
          | Ok () -> (
              match Serve.Client.read_line c with
              | None ->
                  prerr_endline "server closed the connection";
                  1
              | Some response ->
                  print_endline response;
                  0)
        in
        Serve.Client.close c;
        outcome
  in
  Cmd.v
    (Cmd.info "raw"
       ~doc:
         "Send one raw protocol line and print the first response line \
          (for poking at the wire protocol).")
    Term.(const run $ socket_arg $ line_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running shiftc serve daemon over its socket (see \
          docs/PROTOCOL.md for the wire format)")
    [
      client_job_cmd "run" ~project:report_field run_request
        ~doc:"Submit a kernel run to the daemon and print its report";
      client_job_cmd "attack" ~project:report_field attack_request
        ~doc:"Submit a Table-2 attack case to the daemon and print its report";
      client_job_cmd "trace" ~project:report_field trace_request
        ~doc:
          "Submit a traced run to the daemon; the report carries the \
           flow-trace summary (for the full event stream use shiftc trace)";
      client_job_cmd "batch" ~project:whole_result batch_request
        ~doc:
          "Submit a kernel batch to the daemon and print the aggregate \
           (byte-identical to shiftc batch --json)";
      client_job_cmd "leak" ~project:whole_result leak_request
        ~doc:
          "Submit a side-channel leak probe to the daemon and print its \
           verdict (byte-identical to shiftc leak --json)";
      client_status_cmd;
      client_drain_cmd;
      client_raw_cmd;
    ]

let () =
  let doc = "SHIFT: information flow tracking on speculative hardware (ISCA'08 reproduction)" in
  let info = Cmd.info "shiftc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; resume_cmd; batch_cmd; attack_cmd; httpd_cmd;
            disasm_cmd; exec_cmd; trace_cmd; leak_cmd; policies_cmd;
            serve_cmd; client_cmd ]))
