(* The Flowtrace subsystem: provenance shadow map, CPU hooks, chains,
   JSONL export, and the tracing-off transparency guarantee. *)

open Shift_isa
open Shift_mem
module Cpu = Shift_machine.Cpu
module Flowtrace = Shift_machine.Flowtrace
module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec

let tc = Util.tc
let a1 off = Addr.in_region 1 off

(* ---------------- the provenance shadow map ------------------------- *)

let prov_tests =
  [
    tc "reads of missing pages return 0 without allocating" (fun () ->
        let p = Provenance.create () in
        Util.check_int "get" 0 (Provenance.get p (a1 0x5000L));
        Util.check_int "first_id" 0
          (Provenance.first_id p ~addr:(a1 0x5000L) ~len:64);
        Util.check_int "pages" 0 (Provenance.allocated_pages p));
    tc "set / get roundtrip" (fun () ->
        let p = Provenance.create () in
        Provenance.set p (a1 0x5003L) 42;
        Util.check_int "hit" 42 (Provenance.get p (a1 0x5003L));
        Util.check_int "miss" 0 (Provenance.get p (a1 0x5004L));
        Util.check_int "pages" 1 (Provenance.allocated_pages p));
    tc "set_range crosses a page boundary" (fun () ->
        let p = Provenance.create () in
        (* 8 bytes before the 4 KiB boundary, 8 after *)
        Provenance.set_range p ~addr:(a1 0x1FF8L) ~len:16 ~id:7;
        for i = 0 to 15 do
          Util.check_int "in range" 7
            (Provenance.get p (a1 (Int64.of_int (0x1FF8 + i))))
        done;
        Util.check_int "before" 0 (Provenance.get p (a1 0x1FF7L));
        Util.check_int "after" 0 (Provenance.get p (a1 0x2008L));
        Util.check_int "pages" 2 (Provenance.allocated_pages p));
    tc "set_span assigns consecutive ids" (fun () ->
        let p = Provenance.create () in
        Provenance.set_span p ~addr:(a1 0x1FFEL) ~len:4 ~first:10;
        Util.check_int "b0" 10 (Provenance.get p (a1 0x1FFEL));
        Util.check_int "b1" 11 (Provenance.get p (a1 0x1FFFL));
        Util.check_int "b2" 12 (Provenance.get p (a1 0x2000L));
        Util.check_int "b3" 13 (Provenance.get p (a1 0x2001L)));
    tc "first_id finds the first non-zero id" (fun () ->
        let p = Provenance.create () in
        Provenance.set p (a1 0x3005L) 9;
        Provenance.set p (a1 0x3007L) 4;
        Util.check_int "first" 9 (Provenance.first_id p ~addr:(a1 0x3000L) ~len:16);
        Util.check_int "skips zeros" 4
          (Provenance.first_id p ~addr:(a1 0x3006L) ~len:4));
    tc "first_id skips missing pages" (fun () ->
        let p = Provenance.create () in
        Provenance.set p (a1 0x2001L) 5;
        (* range starts on a never-written page, ends on the written one *)
        Util.check_int "across" 5
          (Provenance.first_id p ~addr:(a1 0x1FF0L) ~len:32);
        Util.check_int "pages" 1 (Provenance.allocated_pages p));
    tc "clearing an unallocated page is free" (fun () ->
        let p = Provenance.create () in
        Provenance.set_range p ~addr:(a1 0x8000L) ~len:4096 ~id:0;
        Util.check_int "pages" 0 (Provenance.allocated_pages p));
    tc "overwrite with 0 clears" (fun () ->
        let p = Provenance.create () in
        Provenance.set_range p ~addr:(a1 0x4000L) ~len:8 ~id:3;
        Provenance.set_range p ~addr:(a1 0x4002L) ~len:4 ~id:0;
        Util.check_int "left" 3 (Provenance.get p (a1 0x4001L));
        Util.check_int "cleared" 0 (Provenance.get p (a1 0x4003L));
        Util.check_int "right" 3 (Provenance.get p (a1 0x4006L)));
    tc "shadow paging: ascending fold, zero pages skipped, strict load, deep clone"
      (fun () ->
        Util.check_int "four shadow bytes per guest byte" (4 * Memory.page_size)
          Provenance.page_size;
        let guest k = a1 (Int64.of_int (k * Memory.page_size)) in
        let key k = Int64.shift_right_logical (guest k) 12 in
        let p = Provenance.create () in
        List.iter (fun k -> Provenance.set p (guest k) (k + 1)) [ 9; 2; 5 ];
        (* allocated, then all zero again: counted but not folded *)
        Provenance.set p (guest 7) 3;
        Provenance.set p (guest 7) 0;
        Util.check_int "allocated" 4 (Provenance.allocated_pages p);
        let dump =
          Provenance.fold_pages p ~init:[] ~f:(fun acc k data ->
              (k, Bytes.to_string data) :: acc)
          |> List.rev
        in
        Util.check_bool "ascending keys, zero page skipped" true
          (List.map fst dump = List.map key [ 2; 5; 9 ]);
        List.iter
          (fun (_, data) ->
            Util.check_int "page length" Provenance.page_size (String.length data))
          dump;
        Alcotest.check_raises "short page"
          (Invalid_argument "Provenance.load_page: wrong page size") (fun () ->
            Provenance.load_page p (key 2) "short");
        Alcotest.check_raises "a guest-sized page"
          (Invalid_argument "Provenance.load_page: wrong page size") (fun () ->
            Provenance.load_page p (key 2) (String.make Memory.page_size '\000'));
        let q = Provenance.create () in
        List.iter (fun (k, data) -> Provenance.load_page q k data) dump;
        Util.check_int "loaded pages" 3 (Provenance.allocated_pages q);
        List.iter
          (fun k -> Util.check_int "loaded id" (k + 1) (Provenance.get q (guest k)))
          [ 2; 5; 9 ];
        let c = Provenance.clone p in
        Util.check_int "clone pages" 4 (Provenance.allocated_pages c);
        Provenance.set c (guest 2) 77;
        Provenance.set p (guest 5) 88;
        Provenance.set p (guest 11) 1;
        Util.check_int "source keeps its id" 3 (Provenance.get p (guest 2));
        Util.check_int "clone keeps its id" 6 (Provenance.get c (guest 5));
        Util.check_int "clone did not grow" 4 (Provenance.allocated_pages c));
  ]

(* The span operations against a byte-at-a-time model: a table of
   non-zero ids and the set of pages a fill has allocated.  Spans start
   within 64 bytes of a page boundary in a four-page window, so they
   straddle boundaries and run into pages never written. *)
type span_op =
  | Range of int * int * int  (* window offset, length, id *)
  | Span of int * int * int  (* window offset, length, first id *)
  | First of int * int

let window = 0x10000L
let in_window off = a1 (Int64.add window (Int64.of_int off))

let span_op_gen =
  let open QCheck.Gen in
  let off = map2 (fun page d -> max 0 ((page * 4096) + d)) (int_bound 3) (int_range (-64) 64) in
  let len = oneof [ int_range 0 16; int_range 0 200; return 4096; return 4097 ] in
  let id = oneof [ return 0; int_range 1 1_000; return 0x7fffffff ] in
  oneof
    [
      map3 (fun o l i -> Range (o, l, i)) off len id;
      map3 (fun o l f -> Span (o, l, f)) off len (int_range 0 1_000_000);
      map2 (fun o l -> First (o, l)) off len;
    ]

let show_span_op = function
  | Range (o, l, i) -> Printf.sprintf "set_range +0x%x len %d id %d" o l i
  | Span (o, l, f) -> Printf.sprintf "set_span +0x%x len %d first %d" o l f
  | First (o, l) -> Printf.sprintf "first_id +0x%x len %d" o l

let model_matches ops =
  let p = Provenance.create () in
  let ids = Hashtbl.create 64 and pages = Hashtbl.create 8 in
  let model_set off id =
    if id = 0 then Hashtbl.remove ids off else Hashtbl.replace ids off id
  in
  let touch off len =
    for k = off to off + len - 1 do
      Hashtbl.replace pages (k / 4096) ()
    done
  in
  List.for_all
    (fun op ->
      match op with
      | Range (off, len, id) ->
          Provenance.set_range p ~addr:(in_window off) ~len ~id;
          if id <> 0 then touch off len;
          for k = off to off + len - 1 do
            model_set k id
          done;
          true
      | Span (off, len, first) ->
          Provenance.set_span p ~addr:(in_window off) ~len ~first;
          touch off len;
          for k = 0 to len - 1 do
            model_set (off + k) (first + k)
          done;
          true
      | First (off, len) ->
          let rec first k =
            if k >= off + len then 0
            else match Hashtbl.find_opt ids k with Some id -> id | None -> first (k + 1)
          in
          Provenance.first_id p ~addr:(in_window off) ~len = first off)
    ops
  && Provenance.allocated_pages p = Hashtbl.length pages
  && List.for_all
       (fun off ->
         Provenance.get p (in_window off)
         = Option.value ~default:0 (Hashtbl.find_opt ids off))
       (List.init (5 * 4096) Fun.id)

(* words allocated by [n] calls of [f], with the TLB already warm *)
let minor_words_per n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let prov_model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"span operations = byte-at-a-time model" ~count:300
         (QCheck.make
            ~print:(fun ops -> String.concat "; " (List.map show_span_op ops))
            QCheck.Gen.(list_size (int_range 1 12) span_op_gen))
         model_matches);
    tc "single-page first_id and set_range allocate nothing" (fun () ->
        let p = Provenance.create () in
        let addr = a1 0x7008L and clean = a1 0x9000L in
        Provenance.set_range p ~addr ~len:8 ~id:5;
        (* an allocated page holding no id: first_id scans all of it *)
        Provenance.set_range p ~addr:clean ~len:8 ~id:1;
        Provenance.set_range p ~addr:clean ~len:8 ~id:0;
        let check name f =
          let w = minor_words_per 1000 f in
          if w > 0.01 then Alcotest.failf "%s: %.3f words per call" name w
        in
        check "first_id hit" (fun () -> ignore (Provenance.first_id p ~addr ~len:8));
        check "first_id, clean page" (fun () -> ignore (Provenance.first_id p ~addr:clean ~len:4096));
        check "set_range" (fun () -> Provenance.set_range p ~addr ~len:8 ~id:9);
        check "set_range clear" (fun () -> Provenance.set_range p ~addr:clean ~len:64 ~id:0);
        check "set_span" (fun () -> Provenance.set_span p ~addr ~len:8 ~first:3));
  ]

(* ---------------- CPU hooks on a hand-built program ----------------- *)

(* the Figure-5 lifecycle: speculative-load birth, add propagation, tnat
   check, xor purge, tnat again (clean) *)
let lifecycle =
  let m ?qp op = Program.I (Instr.mk ?qp op) in
  Program.assemble
    [
      m (Instr.Movi (5, Int64.shift_left 1L 45));
      m (Instr.Ld { width = Instr.W8; dst = 5; addr = 5; spec = true; fill = false });
      m (Instr.Movi (6, 41L));
      m (Instr.Arith (Instr.Add, 7, 6, Instr.R 5));
      m (Instr.Tnat { pt = 1; pf = 2; src = 7 });
      m (Instr.Arith (Instr.Xor, 7, 7, Instr.R 7));
      m (Instr.Tnat { pt = 3; pf = 4; src = 7 });
      m Instr.Halt;
    ]

let run_lifecycle options =
  let cpu = Cpu.create lifecycle in
  cpu.Cpu.flowtrace <- Flowtrace.create ~options ();
  (match Cpu.run cpu with
  | Cpu.Exited _ -> ()
  | _ -> Alcotest.fail "lifecycle program should halt");
  cpu.Cpu.flowtrace

let kinds ft =
  List.map (fun (e : Flowtrace.event) -> Flowtrace.kind_of e.ev)
    (Flowtrace.events ft)

let hook_tests =
  [
    tc "NaT lifecycle emits birth / prop / check / purge" (fun () ->
        let ft = run_lifecycle Flowtrace.default_options in
        Alcotest.(check (list string))
          "event kinds"
          [ "birth"; "prop"; "check"; "purge" ]
          (List.map Flowtrace.kind_to_string (kinds ft));
        let s = Flowtrace.summary ft in
        Util.check_int "births" 1 s.Flowtrace.s_births;
        Util.check_int "propagations" 1 s.Flowtrace.s_propagations;
        Util.check_int "purges" 1 s.Flowtrace.s_purges;
        (* both tnats count, only the tainted one emits an event *)
        Util.check_int "checks" 2 s.Flowtrace.s_checks;
        Util.check_int "max depth" 2 s.Flowtrace.s_max_depth;
        Util.check_int "dropped" 0 s.Flowtrace.s_dropped;
        Util.check_int "sources" 1 s.Flowtrace.s_sources);
    tc "speculative births are interned once per ip" (fun () ->
        let ft = run_lifecycle Flowtrace.default_options in
        match Flowtrace.sources ft with
        | [ s ] ->
            Util.check_string "channel" "spec" s.Flowtrace.channel;
            Util.check_int "sid" 1 s.Flowtrace.sid
        | l -> Alcotest.failf "expected 1 source, got %d" (List.length l));
    tc "kind filter keeps only the requested events" (fun () ->
        let ft =
          run_lifecycle
            { Flowtrace.capacity = 64; only = Some [ Flowtrace.Birth; Flowtrace.Check ] }
        in
        Alcotest.(check (list string))
          "filtered" [ "birth"; "check" ]
          (List.map Flowtrace.kind_to_string (kinds ft));
        (* counters are not filtered *)
        Util.check_int "propagations still counted" 1
          (Flowtrace.summary ft).Flowtrace.s_propagations);
    tc "a tiny ring drops the oldest events" (fun () ->
        let ft = run_lifecycle { Flowtrace.capacity = 2; only = None } in
        Util.check_int "dropped" 2 (Flowtrace.dropped ft);
        Alcotest.(check (list string))
          "newest survive" [ "check"; "purge" ]
          (List.map Flowtrace.kind_to_string (kinds ft)));
    tc "chain collapses a consecutive input span" (fun () ->
        let ft = Flowtrace.create () in
        Flowtrace.on_input ft ~ip:0 ~channel:"socket" ~origin:"sys_recv"
          ~offset:100 ~addr:(a1 0x6000L) ~len:8 ~tainted:true;
        Alcotest.(check (list string))
          "one hop"
          [ "input socket[102..105] via sys_recv" ]
          (Flowtrace.chain ft ~addr:(a1 0x6000L) ~positions:[ 2; 3; 4; 5 ]));
    tc "clean input clears stale provenance" (fun () ->
        let ft = Flowtrace.create () in
        Flowtrace.on_input ft ~ip:0 ~channel:"socket" ~origin:"sys_recv"
          ~offset:0 ~addr:(a1 0x6000L) ~len:8 ~tainted:true;
        Flowtrace.on_input ft ~ip:0 ~channel:"file:f" ~origin:"sys_read"
          ~offset:0 ~addr:(a1 0x6000L) ~len:8 ~tainted:false;
        Util.check_int "cleared" 0 (Flowtrace.byte_id ft (a1 0x6002L)));
  ]

(* ---------------- end to end: traced attack sessions ---------------- *)

let tar () =
  match Shift_attacks.Attacks.find "gnu tar" with
  | Some c -> c
  | None -> Alcotest.fail "tar case missing"

let run_tar ?trace () =
  let c = tar () in
  let open Shift_attacks.Attack_case in
  Shift.Session.exec
    ~config:(Shift.Session.Config.make ~policy:c.policy ~setup:c.exploit ?trace ())
    (Shift.Session.build ~mode:Shift_compiler.Mode.shift_byte c.program)

let traced_tar options =
  let c = tar () in
  let open Shift_attacks.Attack_case in
  let config = Shift.Session.Config.make ~policy:c.policy ~setup:c.exploit ~trace:options () in
  let live =
    Shift.Session.start ~config
      (Shift.Session.build ~mode:Shift_compiler.Mode.shift_byte c.program)
  in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  live

let session_tests =
  [
    tc "tar alert carries the input-byte provenance chain" (fun () ->
        let r = run_tar ~trace:Flowtrace.default_options () in
        match Shift.Report.alert r with
        | Some a ->
            Alcotest.(check (list string))
              "chain"
              [
                "input file:archive.tar[28..38] via sys_read";
                "sink H1 via sys_open";
              ]
              a.Shift.Alert.chain
        | None -> Alcotest.fail "expected an alert");
    tc "tracing off: counters identical, no flow, no chain" (fun () ->
        let c (r : Shift.Report.t) =
          let s = r.stats in
          Shift_machine.Stats.
            (s.instructions, s.cycles, s.loads, s.stores)
        in
        (* [run trace] once untraced and once traced: the trace is
           observation only *)
        let untraced_equals_traced name run =
          let plain = run None in
          let traced = run (Some Flowtrace.default_options) in
          Util.check_bool (name ^ " counters") true (c plain = c traced);
          Util.check_bool (name ^ " no flow") true (plain.Shift.Report.flow = None);
          Util.check_bool (name ^ " flow") true (traced.Shift.Report.flow <> None);
          plain
        in
        let plain = untraced_equals_traced "tar" (fun trace -> run_tar ?trace ()) in
        (match Shift.Report.alert plain with
        | Some a -> Util.check_bool "no chain" true (a.Shift.Alert.chain = [])
        | None -> Alcotest.fail "expected an alert");
        List.iter
          (fun (name, mode) ->
            let k = Option.get (Spec.find name) in
            let image = Shift.Session.build ~mode k.Spec.program in
            let run trace =
              Shift.Session.exec
                ~config:
                  (Shift.Session.Config.make ~policy:Shift.Policy.default
                     ~setup:(Spec.setup ~size:512 ~tainted:true k) ?trace ())
                image
            in
            ignore
              (untraced_equals_traced
                 (Printf.sprintf "%s/%s" name (Mode.to_string mode))
                 run))
          Mode.
            [
              ("gzip", shift_word); ("gzip", shift_byte);
              ("mcf", shift_word); ("mcf", shift_byte);
            ]);
    tc "JSONL export is deterministic" (fun () ->
        let doc () =
          let live = traced_tar Flowtrace.default_options in
          let report = Shift.Session.report live in
          match Shift.Session.flowtrace live with
          | Some ft -> Shift.Flow.jsonl ~outcome:report.Shift.Report.outcome ft
          | None -> Alcotest.fail "trace missing"
        in
        Util.check_string "byte-identical" (doc ()) (doc ()));
    tc "JSONL lines are tagged and versioned" (fun () ->
        let live = traced_tar Flowtrace.default_options in
        (match Shift.Session.flowtrace live with
        | Some ft ->
            let lines =
              String.split_on_char '\n' (Shift.Flow.jsonl ft)
              |> List.filter (fun l -> l <> "")
            in
            let meta = List.hd lines in
            Util.check_bool "meta line" true
              (Str_exists.contains meta "\"line\":\"meta\"");
            Util.check_bool "versioned" true
              (Str_exists.contains meta
                 (Printf.sprintf "\"v\":%d" Shift.Results.schema_version));
            Util.check_bool "summary line" true
              (List.exists
                 (fun l -> Str_exists.contains l "\"line\":\"summary\"")
                 lines)
        | None -> Alcotest.fail "trace missing"));
  ]

let suites =
  [
    ("flowtrace.provenance", prov_tests @ prov_model_tests);
    ("flowtrace.hooks", hook_tests);
    ("flowtrace.session", session_tests);
  ]
