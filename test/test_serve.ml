(* The resident service: the wire protocol's full grammar (no daemon
   needed — Protocol is pure data), the scheduler's determinism under
   slicing, migration and crash-retry, and the socket server end to end
   over a real Unix-domain socket: version negotiation, protocol
   errors, client disconnect mid-job, drain with in-flight sessions,
   and the headline invariant — a served (and migrated) report is
   byte-identical to a solo run's. *)

module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module Spec = Shift_workloads.Spec
module Protocol = Shift.Protocol
module Serve = Shift.Serve
module Sched = Shift.Serve.Scheduler

let tc = Util.tc

let report_json (r : Shift.Report.t) =
  Shift.Results.to_string (Shift.Results.of_report r)

let kernel name =
  match Spec.find name with
  | Some k -> k
  | None -> Alcotest.failf "no %s kernel" name

let kernel_config k =
  Shift.Session.Config.make ~policy:Policy.default
    ~setup:(Spec.setup ~size:256 ~tainted:true k)
    ()

let kernel_job ?deadline name =
  let k = kernel name in
  Shift.Fleet.job ?deadline ~name ~config:(kernel_config k) (fun () ->
      Shift.Session.build ~mode:Mode.shift_word k.Spec.program)

let solo_json name =
  let k = kernel name in
  report_json
    (Shift.Session.exec ~config:(kernel_config k)
       (Shift.Session.build ~mode:Mode.shift_word k.Spec.program))

(* ---------- the wire protocol ---------- *)

(* [request_of_json] after [request_to_json] gives the envelope back
   exactly when [Protocol.check] accepts its request: the check is the
   only range test on request values, and every value it accepts
   survives the wire *)
module G = QCheck.Gen

let request_gen =
  let open G in
  let int = oneof [ oneofl [ -1; 0; 1; 2 ]; small_signed_int; G.int ] in
  let str = oneof [ string_size ~gen:char (int_bound 12); string_size ~gen:printable (int_bound 12) ] in
  let mode = oneofl Util.all_modes in
  let backend = oneofl [ Shift.Backend.Nat; Shift.Backend.Coproc; Shift.Backend.Off ] in
  let events =
    oneof
      [
        str;
        map (String.concat ",")
          (list_size (int_range 1 3)
             (oneofl [ "birth"; "load"; "prop"; "store"; "purge"; "check"; "sink" ]));
      ]
  in
  oneof
    [
      (let* kernel = str and* mode = mode and* size = opt int and* safe = bool
       and* superblocks = bool and* backend = backend in
       return (Protocol.Run { kernel; mode; size; safe; superblocks; backend }));
      (let* case = str and* mode = mode and* benign = bool and* superblocks = bool
       and* backend = backend in
       return (Protocol.Attack { case; mode; benign; superblocks; backend }));
      (let* image = str and* mode = mode and* benign = bool and* ring = int
       and* only = opt events and* superblocks = bool and* backend = backend in
       return (Protocol.Trace { image; mode; benign; ring; only; superblocks; backend }));
      (let* kernels = list_size (int_bound 3) str and* mode = mode and* size = opt int
       and* safe = bool and* retries = int and* superblocks = bool and* backend = backend in
       return (Protocol.Batch { kernels; mode; size; safe; retries; superblocks; backend }));
      (let* case = str and* mode = mode
       and* clause = oneofl [ Shift.Leak.Ct_seq; Shift.Leak.Ct_none ]
       and* variants = int and* superblocks = bool and* backend = backend in
       return (Protocol.Leak { case; mode; clause; variants; superblocks; backend }));
      oneofl [ Protocol.Status; Protocol.Drain ];
    ]

let envelope_gen =
  let open G in
  let* id = opt (string_size ~gen:char (int_bound 8))
  and* tenant = opt (string_size ~gen:char (int_bound 8))
  and* deadline = opt (int_range 1 max_int)
  and* migrate_every = opt (int_range 1 1000)
  and* request = request_gen in
  return { Protocol.id; tenant; deadline; migrate_every; request }

let round_trip_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"a request survives the wire iff Protocol.check accepts it"
       (QCheck.make
          ~print:(fun env -> Protocol.to_line (Protocol.request_to_json env))
          envelope_gen)
       (fun env ->
         match
           ( Protocol.request_of_json (Protocol.request_to_json env),
             Protocol.check env.Protocol.request )
         with
         | Ok back, Ok _ -> back = env
         | Error e, Error message ->
             e.Protocol.code = Protocol.Bad_request && e.Protocol.message = message
         | Ok _, Error _ | Error _, Ok _ -> false))

let parse_error line =
  match Protocol.of_line line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "line %S parsed" line

let protocol_tests =
  [
    tc "hello round-trips and carries the version" (fun () ->
        match Protocol.hello_of_json Protocol.hello with
        | Ok v -> Util.check_int "version" Protocol.version v
        | Error e -> Alcotest.fail e);
    tc "a non-JSON line is bad_json" (fun () ->
        Util.check_string "code" "bad_json"
          (Protocol.error_code_to_string (parse_error "not json").Protocol.code));
    tc "an unknown kind is refused and keeps the id" (fun () ->
        let e = parse_error {|{"id":"x7","kind":"frobnicate"}|} in
        Util.check_string "code" "unknown_kind"
          (Protocol.error_code_to_string e.Protocol.code);
        Util.check_string "id recovered" "x7"
          (Option.value ~default:"?" e.Protocol.error_id));
    tc "a request without a kind is bad_request" (fun () ->
        Util.check_string "code" "bad_request"
          (Protocol.error_code_to_string
             (parse_error {|{"id":"a"}|}).Protocol.code));
    tc "a line beyond max_bytes is oversized" (fun () ->
        let line = {|{"kind":"run","kernel":"gzip"}|} in
        match Protocol.of_line ~max_bytes:8 line with
        | Error { Protocol.code = Protocol.Oversized; _ } -> ()
        | Error e -> Alcotest.fail (Protocol.error_code_to_string e.Protocol.code)
        | Ok _ -> Alcotest.fail "oversized line parsed");
    tc "run requires a kernel; field types are checked" (fun () ->
        let missing = parse_error {|{"kind":"run"}|} in
        Util.check_string "code" "bad_request"
          (Protocol.error_code_to_string missing.Protocol.code);
        let ill_typed = parse_error {|{"kind":"run","kernel":"gzip","size":"big"}|} in
        Util.check_string "code" "bad_request"
          (Protocol.error_code_to_string ill_typed.Protocol.code);
        let negative = parse_error {|{"kind":"run","kernel":"gzip","size":-4}|} in
        Util.check_string "code" "bad_request"
          (Protocol.error_code_to_string negative.Protocol.code));
    tc "request fields: refusal texts and absent-field defaults" (fun () ->
        let refusal line =
          match Shift.Results.of_string line with
          | Error e -> Alcotest.failf "%S is not JSON: %s" line e
          | Ok j -> (
              match Protocol.request_of_json j with
              | Error { Protocol.code = Protocol.Bad_request; message; _ } -> message
              | Error e ->
                  Alcotest.failf "%S: %s" line (Protocol.error_code_to_string e.Protocol.code)
              | Ok _ -> Alcotest.failf "%S parsed" line)
        in
        let must field ty = Printf.sprintf "field %S must be %s" field ty in
        List.iter
          (fun (line, message) -> Util.check_string line message (refusal line))
          [
            ({|{"kind":"run"}|}, {|run requires a "kernel"|});
            ({|{"kind":"attack"}|}, {|attack requires a "case"|});
            ({|{"kind":"trace"}|}, {|trace requires an "image"|});
            ({|{"kind":"leak"}|}, {|leak requires a "case"|});
            ({|{"kind":"run","kernel":"gzip","mode":3}|}, must "mode" "a string");
            ({|{"kind":"attack","case":"c","superblocks":1}|}, must "superblocks" "a boolean");
            ({|{"kind":"trace","image":"i","backend":true}|}, must "backend" "a string");
            ({|{"kind":"leak","case":"c","mode":[]}|}, must "mode" "a string");
            ({|{"kind":"batch","superblocks":"no"}|}, must "superblocks" "a boolean");
            ({|{"kind":"run","kernel":"gzip","size":"big"}|}, must "size" "an integer");
            ({|{"kind":"batch","size":1.5}|}, must "size" "an integer");
            ({|{"kind":"run","kernel":"gzip","safe":"yes"}|}, must "safe" "a boolean");
            ({|{"kind":"batch","safe":0}|}, must "safe" "a boolean");
            ({|{"kind":"attack","case":"c","benign":"no"}|}, must "benign" "a boolean");
            ({|{"kind":"trace","image":"i","benign":1}|}, must "benign" "a boolean");
            ({|{"kind":"trace","image":"i","ring":"big"}|}, must "ring" "an integer");
            ({|{"kind":"trace","image":"i","events":["load"]}|}, must "events" "a string");
            ({|{"kind":"batch","kernels":"gzip"}|}, must "kernels" "a list of strings");
            ({|{"kind":"batch","kernels":["gzip",3]}|}, must "kernels" "a list of strings");
            ({|{"kind":"batch","retries":"two"}|}, must "retries" "an integer");
            ({|{"kind":"leak","case":"c","clause":1}|}, must "clause" "a string");
            ({|{"kind":"leak","case":"c","variants":"4"}|}, must "variants" "an integer");
            ({|{"kind":"leak","case":"c","clause":"ct-all"}|},
             {|unknown contract clause "ct-all" (try ct-seq)|});
          ];
        let decoded line =
          match Protocol.of_line line with
          | Ok env -> env.Protocol.request
          | Error e -> Alcotest.failf "%S refused: %s" line e.Protocol.message
        in
        let word = Mode.shift_word and nat = Shift.Backend.Nat in
        List.iter
          (fun (line, expected) ->
            Util.check_bool line true (decoded line = expected))
          [
            ( {|{"kind":"run","kernel":"gzip"}|},
              Protocol.Run
                {
                  kernel = "gzip";
                  mode = word;
                  size = None;
                  safe = false;
                  superblocks = true;
                  backend = nat;
                } );
            ( {|{"kind":"attack","case":"c"}|},
              Protocol.Attack
                { case = "c"; mode = word; benign = false; superblocks = true; backend = nat }
            );
            ( {|{"kind":"trace","image":"i"}|},
              Protocol.Trace
                {
                  image = "i";
                  mode = word;
                  benign = false;
                  ring = 4096;
                  only = None;
                  superblocks = true;
                  backend = nat;
                } );
            ( {|{"kind":"batch"}|},
              Protocol.Batch
                {
                  kernels = [];
                  mode = word;
                  size = None;
                  safe = false;
                  retries = 0;
                  superblocks = true;
                  backend = nat;
                } );
            ( {|{"kind":"leak","case":"c"}|},
              Protocol.Leak
                {
                  case = "c";
                  mode = word;
                  clause = Shift.Leak.Ct_seq;
                  variants = 4;
                  superblocks = true;
                  backend = nat;
                } );
            ({|{"kind":"status"}|}, Protocol.Status);
            ({|{"kind":"drain"}|}, Protocol.Drain);
          ]);
    tc "a bad mode name is bad_request" (fun () ->
        Util.check_string "code" "bad_request"
          (Protocol.error_code_to_string
             (parse_error {|{"kind":"run","kernel":"gzip","mode":"sideways"}|})
               .Protocol.code));
    tc "every request kind round-trips through its JSON" (fun () ->
        let envs =
          [
            {
              Protocol.id = Some "r1";
              tenant = Some "t";
              deadline = Some 1000;
              migrate_every = Some 3;
              request =
                Protocol.Run
                  {
                    kernel = "gzip";
                    mode = Mode.shift_byte;
                    size = Some 64;
                    safe = true;
                    superblocks = false;
                    backend = Shift.Backend.Coproc;
                  };
            };
            {
              Protocol.id = Some "a1";
              tenant = None;
              deadline = None;
              migrate_every = None;
              request =
                Protocol.Attack
                  {
                    case = "gnu tar";
                    mode = Mode.shift_word;
                    benign = true;
                    superblocks = true;
                    backend = Shift.Backend.Off;
                  };
            };
            {
              Protocol.id = Some "t1";
              tenant = None;
              deadline = None;
              migrate_every = None;
              request =
                Protocol.Trace
                  {
                    image = "qwikiwiki";
                    mode = Mode.shift_word;
                    benign = false;
                    ring = 128;
                    only = Some "birth,sink";
                    superblocks = true;
                    backend = Shift.Backend.Nat;
                  };
            };
            {
              Protocol.id = Some "b1";
              tenant = None;
              deadline = None;
              migrate_every = None;
              request =
                Protocol.Batch
                  {
                    kernels = [ "gzip"; "mcf" ];
                    mode = Mode.shift_word;
                    size = None;
                    safe = false;
                    retries = 2;
                    superblocks = true;
                    backend = Shift.Backend.Nat;
                  };
            };
            {
              Protocol.id = None;
              tenant = None;
              deadline = None;
              migrate_every = None;
              request = Protocol.Status;
            };
          ]
        in
        List.iter
          (fun env ->
            match Protocol.request_of_json (Protocol.request_to_json env) with
            | Ok back ->
                Util.check_bool
                  ("round-trip of " ^ Protocol.kind_of_request env.Protocol.request)
                  true (env = back)
            | Error e -> Alcotest.fail e.Protocol.message)
          envs);
    tc "every mode spelling Mode.to_string emits parses back" (fun () ->
        List.iter
          (fun m ->
            match Mode.of_string (Mode.to_string m) with
            | Ok back -> Util.check_bool (Mode.to_string m) true (m = back)
            | Error e -> Alcotest.fail e)
          Util.all_modes;
        List.iter
          (fun (s, m) ->
            match Mode.of_string s with
            | Ok back -> Util.check_bool s true (m = back)
            | Error e -> Alcotest.fail e)
          [
            ("none", Mode.Uninstrumented);
            ("word", Mode.shift_word);
            ("byte", Mode.shift_byte);
            ("dbt", Mode.Software_dbt { granularity = Shift_mem.Granularity.Word });
          ];
        match Mode.of_string "word+bogus" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "word+bogus parsed");
    tc "responses carry id and ok; to_line is one line" (fun () ->
        let ok = Protocol.ok_response ~tenant:"t" ~id:"j1" (Shift.Results.Int 3) in
        Util.check_string "id" "j1" (Option.get (Protocol.response_id ok));
        Util.check_bool "ok" true (Protocol.response_ok ok);
        let err =
          Protocol.error_response
            { Protocol.code = Protocol.Draining; message = "m"; error_id = Some "j2" }
        in
        Util.check_bool "not ok" false (Protocol.response_ok err);
        Util.check_string "error id" "j2" (Option.get (Protocol.response_id err));
        Util.check_bool "single line" false
          (String.contains (Protocol.to_line ok) '\n'));
    tc "out-of-range values are bad_request, an unknown event kind too" (fun () ->
        List.iter
          (fun (line, message) ->
            let e = parse_error line in
            Util.check_string line "bad_request" (Protocol.error_code_to_string e.Protocol.code);
            Util.check_string line message e.Protocol.message)
          [
            ({|{"kind":"trace","image":"gnu tar","ring":0}|}, {|field "ring" must be positive|});
            ({|{"kind":"trace","image":"gnu tar","events":"bogus"}|}, {|unknown event kind in "bogus"|});
            ({|{"kind":"batch","retries":-1}|}, {|field "retries" must be non-negative|});
            ({|{"kind":"leak","case":"aes-table","variants":1}|}, {|field "variants" must be at least 2|});
          ]);
    round_trip_property;
    tc "the kind and error-code catalogues are complete" (fun () ->
        Util.check_int "kinds" 7 (List.length Protocol.kinds);
        List.iter
          (fun env ->
            Util.check_bool "kind listed" true
              (List.mem (Protocol.kind_of_request env) Protocol.kinds))
          [ Protocol.Status; Protocol.Drain ];
        Util.check_int "codes" 8 (List.length Protocol.error_codes));
  ]

(* ---------- the scheduler ---------- *)

let submit_and_collect sched specs =
  List.iter (fun (id, mig, retries, job) ->
      Sched.submit sched ?migrate_every:mig ~retries ~id job)
    specs;
  Sched.drain sched;
  let finished = Sched.take_finished sched in
  Sched.shutdown sched;
  finished

let outcome_of finished id =
  match List.find_opt (fun (d : Sched.done_job) -> d.Sched.job = id) finished with
  | Some d -> d
  | None -> Alcotest.failf "job %s never finished" id

let scheduler_tests =
  [
    tc "a scheduled session's report equals the solo run's" (fun () ->
        let finished =
          submit_and_collect (Sched.create ~workers:2 ())
            [ ("g", None, 0, kernel_job "gzip") ]
        in
        match (outcome_of finished "g").Sched.outcome with
        | Shift.Fleet.Finished r ->
            Util.check_string "byte-identical" (solo_json "gzip") (report_json r)
        | Shift.Fleet.Crashed c -> Alcotest.fail c.Shift.Fleet.exn);
    tc "migration between workers never changes the report" (fun () ->
        (* gcc and crafty run 2 and 3 default slices: migrate after each *)
        let kernels = [ ("gzip", 2); ("mcf", 3); ("gcc", 1); ("crafty", 1) ] in
        let finished =
          submit_and_collect (Sched.create ~workers:3 ())
            (List.map
               (fun (name, every) -> (name, Some every, 0, kernel_job name))
               kernels)
        in
        List.iter
          (fun (name, _) ->
            let d = outcome_of finished name in
            Util.check_bool (name ^ " migrated") true (d.Sched.migrations > 0);
            match d.Sched.outcome with
            | Shift.Fleet.Finished r ->
                Util.check_string (name ^ " byte-identical") (solo_json name)
                  (report_json r)
            | Shift.Fleet.Crashed c -> Alcotest.failf "%s crashed: %s" name c.Shift.Fleet.exn)
          kernels);
    tc "a crashing job is retried then contained" (fun () ->
        let poisoned =
          Shift.Fleet.job ~name:"poisoned" (fun () -> failwith "bad image")
        in
        let finished =
          submit_and_collect (Sched.create ~workers:1 ())
            [ ("p", None, 2, poisoned); ("g", None, 0, kernel_job "gzip") ]
        in
        (match (outcome_of finished "p").Sched.outcome with
        | Shift.Fleet.Crashed c ->
            Util.check_int "attempts" 3 c.Shift.Fleet.attempts
        | Shift.Fleet.Finished _ -> Alcotest.fail "poisoned job finished");
        match (outcome_of finished "g").Sched.outcome with
        | Shift.Fleet.Finished _ -> ()
        | Shift.Fleet.Crashed _ -> Alcotest.fail "sibling disturbed by the crash");
    tc "a submit-time deadline times the session out" (fun () ->
        let finished =
          submit_and_collect (Sched.create ~workers:1 ())
            [ ("slow", None, 0, Shift.Fleet.with_deadline 1000 (kernel_job "gzip")) ]
        in
        match (outcome_of finished "slow").Sched.outcome with
        | Shift.Fleet.Finished { Shift.Report.outcome = Shift.Report.Timeout; _ } ->
            ()
        | _ -> Alcotest.fail "expected a timeout");
    tc "drain waits for every in-flight session" (fun () ->
        let sched = Sched.create ~workers:2 () in
        List.iter
          (fun i ->
            Sched.submit sched ~migrate_every:2 ~id:(string_of_int i)
              (kernel_job "gzip"))
          [ 1; 2; 3; 4 ];
        Sched.drain sched;
        Util.check_int "in_flight after drain" 0 (Sched.in_flight sched);
        Util.check_int "all finished" 4 (List.length (Sched.take_finished sched));
        Util.check_int "completed stat" 4
          (List.assoc "completed" (Sched.stats sched));
        Sched.shutdown sched);
    tc "parked snapshots spill to the checkpoint dir and are reaped" (fun () ->
        let dir = Filename.temp_file "serve-ckpt" "" in
        Sys.remove dir;
        let sched = Sched.create ~workers:1 ~checkpoint_dir:dir () in
        Sched.submit sched ~migrate_every:1 ~id:"g" (kernel_job "gzip");
        Sched.drain sched;
        Sched.shutdown sched;
        Util.check_bool "dir created" true (Sys.file_exists dir);
        Util.check_int "spill reaped on completion" 0
          (Array.length (Sys.readdir dir)));
    tc "a spill copied mid-run resumes to the solo report" (fun () ->
        let dir = Filename.temp_file "serve-ckpt" "" in
        Sys.remove dir;
        let spill = Filename.concat dir "job-000001.snap.json" in
        let copy = Filename.temp_file "serve-spill" ".json" in
        (* the third slice runs after two parks, each of which spilled *)
        let slices = ref 0 and copied = ref false in
        let on_slice _ =
          incr slices;
          if !slices = 3 then begin
            Out_channel.with_open_bin copy (fun oc ->
                output_string oc (In_channel.with_open_bin spill In_channel.input_all));
            copied := true
          end
        in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove copy;
            try Sys.rmdir dir with Sys_error _ -> ())
          (fun () ->
            let sched =
              Sched.create ~workers:1 ~slice:5000 ~checkpoint_dir:dir ~on_slice ()
            in
            Sched.submit sched ~migrate_every:1 ~id:"g" (kernel_job "gzip");
            Sched.drain sched;
            Sched.shutdown sched;
            Util.check_bool "spill copied in a later slice" true !copied;
            match Shift.Snapshot.load copy with
            | Error e -> Alcotest.failf "the copied spill did not load: %s" e
            | Ok snap -> (
                let live = Shift.Session.restore snap in
                match Shift.Session.advance live ~budget:max_int with
                | `Yielded -> Alcotest.fail "a maximal slice yielded"
                | `Finished _ ->
                    Util.check_string "resumed spill = solo" (solo_json "gzip")
                      (report_json (Shift.Session.report live)))));
  ]

(* ---------- the server, end to end over a real socket ---------- *)

let with_server ?(config_of = fun c -> c) f =
  let path = Filename.temp_file "shiftc-serve" ".sock" in
  Sys.remove path;
  let config =
    config_of
      { Serve.Server.default_config with Serve.Server.socket_path = path; workers = 2 }
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Server.run ~catalog:Shift_catalog.Catalog.standard config)
  in
  let rec connect tries =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
        if tries = 0 then Alcotest.failf "cannot reach the daemon: %s" e
        else begin
          Unix.sleepf 0.05;
          connect (tries - 1)
        end
  in
  let finally () =
    (* make sure the daemon exits even if the test failed mid-way *)
    (match Serve.Client.connect path with
    | Ok c ->
        ignore
          (Serve.Client.request c
             {
               Protocol.id = Some "cleanup-drain";
               tenant = None;
               deadline = None;
               migrate_every = None;
               request = Protocol.Drain;
             });
        Serve.Client.close c
    | Error _ -> ());
    Domain.join daemon
  in
  Fun.protect ~finally (fun () -> f (connect 100) path)

let plain_env ?id ?migrate_every request =
  { Protocol.id; tenant = None; deadline = None; migrate_every; request }

let request_exn c env =
  match Serve.Client.request c env with
  | Ok json -> json
  | Error e -> Alcotest.fail e

let report_of_response json =
  match Shift.Results.member "result" json with
  | Some result -> (
      match Shift.Results.member "report" result with
      | Some report -> Shift.Results.to_string report
      | None -> Alcotest.fail "response without a report")
  | None -> Alcotest.failf "not an ok response: %s" (Protocol.to_line json)

let error_code_of json =
  match Shift.Results.member "error" json with
  | Some err -> (
      match Shift.Results.member "code" err with
      | Some (Shift.Results.String c) -> c
      | _ -> Alcotest.fail "error without a code")
  | None -> Alcotest.failf "not an error response: %s" (Protocol.to_line json)

let server_tests =
  [
    tc "a served and a migrated run are byte-identical to solo" (fun () ->
        with_server (fun c _path ->
            let run id migrate_every =
              report_of_response
                (request_exn c
                   (plain_env ~id ?migrate_every
                      (Protocol.Run
                         {
                           kernel = "gzip";
                           mode = Mode.shift_word;
                           size = Some 256;
                           safe = false;
                           superblocks = true;
                           backend = Shift.Backend.Nat;
                         })))
            in
            let solo = solo_json "gzip" in
            Util.check_string "served" solo (run "s" None);
            Util.check_string "migrated" solo (run "m" (Some 2))));
    tc "a wrong hello version is refused and the connection closed" (fun () ->
        with_server (fun c path ->
            (* [c] holds the daemon open; hand-shake a second, bad client *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let line = {|{"proto_version":99}|} ^ "\n" in
            ignore (Unix.write_substring fd line 0 (String.length line));
            let buf = Bytes.create 4096 in
            let n = Unix.read fd buf 0 4096 in
            let response = Bytes.sub_string buf 0 n in
            Util.check_bool "refused" true
              (Str_exists.contains response "unsupported_version");
            Util.check_int "then closed" 0 (Unix.read fd buf 0 4096);
            Unix.close fd;
            ignore (request_exn c (plain_env ~id:"st" Protocol.Status))));
    tc "protocol errors answer without killing the connection" (fun () ->
        with_server (fun c _path ->
            (match Serve.Client.send_line c "}{ nonsense" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            (match Serve.Client.read_line c with
            | Some line ->
                Util.check_bool "bad_json" true (Str_exists.contains line "bad_json")
            | None -> Alcotest.fail "no error response");
            let unknown =
              request_exn c
                (plain_env ~id:"u"
                   (Protocol.Run
                      {
                        kernel = "no-such-kernel";
                        mode = Mode.shift_word;
                        size = None;
                        safe = false;
                        superblocks = true;
                        backend = Shift.Backend.Nat;
                      }))
            in
            Util.check_string "unknown_name" "unknown_name" (error_code_of unknown);
            let idless =
              request_exn c
                (plain_env
                   (Protocol.Run
                      {
                        kernel = "gzip";
                        mode = Mode.shift_word;
                        size = None;
                        safe = false;
                        superblocks = true;
                        backend = Shift.Backend.Nat;
                      }))
            in
            Util.check_string "id required" "bad_request" (error_code_of idless);
            (* the connection still works *)
            ignore (request_exn c (plain_env ~id:"st" Protocol.Status))));
    tc "a client disconnecting mid-job never disturbs the job" (fun () ->
        with_server (fun c path ->
            (* second client submits a job and vanishes immediately *)
            (match Serve.Client.connect path with
            | Error e -> Alcotest.fail e
            | Ok c2 ->
                (match
                   Serve.Client.send_line c2
                     (Protocol.to_line
                        (Protocol.request_to_json
                           (plain_env ~id:"orphan" ~migrate_every:2
                              (Protocol.Run
                                 {
                                   kernel = "gzip";
                                   mode = Mode.shift_word;
                                   size = Some 256;
                                   safe = false;
                                   superblocks = true;
                                   backend = Shift.Backend.Nat;
                                 }))))
                 with
                | Ok () -> ()
                | Error e -> Alcotest.fail e);
                Serve.Client.close c2);
            (* the server must stay up and complete the orphaned job;
               its result is simply dropped *)
            let rec wait tries =
              if tries = 0 then Alcotest.fail "orphaned job never completed"
              else
                let status =
                  request_exn c (plain_env ~id:"st" Protocol.Status)
                in
                let counter name =
                  match Shift.Results.member "result" status with
                  | Some r -> (
                      match Shift.Results.member name r with
                      | Some (Shift.Results.Int n) -> n
                      | _ -> Alcotest.failf "status without %s" name)
                  | None -> Alcotest.fail "status refused"
                in
                if counter "completed" >= 1 && counter "in_flight" = 0 then ()
                else begin
                  Unix.sleepf 0.05;
                  wait (tries - 1)
                end
            in
            wait 200));
    tc "drain with in-flight sessions finishes them first" (fun () ->
        with_server (fun c _path ->
            (* submit a job, then drain, without reading in between: the
               job's response must arrive before the drain's *)
            let send env =
              match
                Serve.Client.send_line c
                  (Protocol.to_line (Protocol.request_to_json env))
              with
              | Ok () -> ()
              | Error e -> Alcotest.fail e
            in
            send
              (plain_env ~id:"slow" ~migrate_every:2
                 (Protocol.Run
                    {
                      kernel = "mcf";
                      mode = Mode.shift_word;
                      size = Some 256;
                      safe = false;
                      superblocks = true;
                      backend = Shift.Backend.Nat;
                    }));
            send (plain_env ~id:"bye" Protocol.Drain);
            let next () =
              match Serve.Client.read_line c with
              | Some line -> (
                  match Shift.Results.of_string line with
                  | Ok json -> json
                  | Error e -> Alcotest.fail e)
              | None -> Alcotest.fail "connection closed early"
            in
            let first = next () in
            Util.check_string "job responds before the drain" "slow"
              (Option.value ~default:"?" (Protocol.response_id first));
            Util.check_string "in-flight job byte-identical" (solo_json "mcf")
              (report_of_response first);
            let second = next () in
            Util.check_string "then the drain completes" "bye"
              (Option.value ~default:"?" (Protocol.response_id second));
            match Shift.Results.member "result" second with
            | Some result -> (
                match Shift.Results.member "completed" result with
                | Some (Shift.Results.Int n) ->
                    Util.check_bool "drain counted the job" true (n >= 1)
                | _ -> Alcotest.fail "drain result without completed count")
            | None -> Alcotest.failf "drain failed: %s" (Protocol.to_line second)));
    tc "a draining server refuses new jobs" (fun () ->
        with_server (fun c path ->
            (* keep a job in flight so the drain parks instead of
               completing instantly, then a late job must be refused; a
               big input keeps the job running well past the drain *)
            (match
               Serve.Client.send_line c
                 (Protocol.to_line
                    (Protocol.request_to_json
                       (plain_env ~id:"slow" ~migrate_every:2
                          (Protocol.Run
                             {
                               kernel = "gzip";
                               mode = Mode.shift_word;
                               size = Some 16384;
                               safe = false;
                               superblocks = true;
                               backend = Shift.Backend.Nat;
                             }))))
             with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            match Serve.Client.connect path with
            | Error e -> Alcotest.fail e
            | Ok c2 ->
                (match
                   Serve.Client.send_line c2
                     (Protocol.to_line
                        (Protocol.request_to_json
                           (plain_env ~id:"bye" Protocol.Drain)))
                 with
                | Ok () -> ()
                | Error e -> Alcotest.fail e);
                Unix.sleepf 0.05;
                let refused =
                  request_exn c
                    (plain_env ~id:"late"
                       (Protocol.Run
                          {
                            kernel = "gzip";
                            mode = Mode.shift_word;
                            size = None;
                            safe = false;
                            superblocks = true;
                            backend = Shift.Backend.Nat;
                          }))
                in
                Util.check_string "draining" "draining" (error_code_of refused);
                Serve.Client.close c2));
  ]

let suites =
  [
    ("serve.protocol", protocol_tests);
    ("serve.scheduler", scheduler_tests);
    ("serve.server", server_tests);
  ]
