(* Each attack case owns a cache of its compiled images, main and aux,
   one per build key.  The oracle is a fresh [Session.build]: a cached
   image that has already run must still match it in content, and runs
   from one warm image must report exactly what fresh images report,
   whatever inputs ran on it before. *)

module Mode = Shift_compiler.Mode
module Image = Shift_compiler.Image
module Backend = Shift_tracking.Backend
module Session = Shift.Session
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks
module Catalog = Shift_catalog.Catalog
module Hwtrace = Shift_machine.Hwtrace

let tc = Util.tc
let backends = [ Backend.Nat; Backend.Coproc; Backend.Off ]

(* the same case with an empty cache of its own, so a test starts cold
   and its images die with it *)
let fresh (c : Case.t) = { c with Case.cache = Session.image_cache () }

(* an image's content; its [code] is derived state that running fills *)
let content (i : Image.t) =
  Marshal.to_string (i.program, i.data, i.symbols, i.mode, i.func_sizes) []

let cases ~mode =
  Attacks.all @ Attacks.extended ~mode @ Attacks.multiproc @ Attacks.sidechannel

(* the main image and the aux images, built through the case's cache *)
let images ~backend ~mode (c : Case.t) =
  (c.Case.program_name, c.Case.program, Case.image ~backend ~mode c)
  :: List.map2
       (fun (name, prog) (_, image) -> (name, prog, image))
       c.Case.images
       (Case.config ~backend ~mode ~input:c.Case.exploit c).Session.Config.images

(* one bounded single-process session under the exploit world, enough
   to build the image's code and warm its blocks *)
let warm ~backend (c : Case.t) image =
  let config =
    Session.Config.make ~policy:c.Case.policy ~setup:c.Case.exploit ~fuel:1_000_000 ~backend ()
  in
  ignore (Session.exec ~config image)

let oracle_test mode =
  tc (Printf.sprintf "cached = fresh build (%s)" (Mode.to_string mode)) (fun () ->
      List.iter
        (fun c ->
          let c = fresh c in
          let by_backend =
            List.map
              (fun backend ->
                let imgs = images ~backend ~mode c in
                List.iter
                  (fun (name, prog, image) ->
                    warm ~backend c image;
                    let label = Printf.sprintf "%s under %s" name (Backend.to_string backend) in
                    Util.check_bool (label ^ ": content") true
                      (content image = content (Session.build ~backend ~mode prog)))
                  imgs;
                List.iter2
                  (fun (name, _, first) (_, _, again) ->
                    Util.check_bool (name ^ ": repeat is the same image") true (first == again))
                  imgs (images ~backend ~mode c);
                (backend, imgs))
              backends
          in
          List.iter2
            (fun (name, _, off) (_, _, coproc) ->
              Util.check_bool (name ^ ": off and coproc images distinct") true (off != coproc))
            (List.assoc Backend.Off by_backend)
            (List.assoc Backend.Coproc by_backend))
        (cases ~mode))

(* a run's observable bytes: the report JSON and the Flowtrace export *)
let observe live =
  ignore (Session.advance live ~budget:max_int);
  ( Shift.Results.to_string (Shift.Results.of_report (Session.report live)),
    Shift.Flow.jsonl ?outcome:(Session.outcome live) (Option.get (Session.flowtrace live)) )

let run ~backend ~mode (c : Case.t) input =
  let config = Case.config ~trace:Shift.Flowtrace.default_options ~backend ~mode ~input c in
  observe (Session.start ~config (Case.image ~backend ~mode c))

let warm_cold_test (backend, mode, cases) =
  tc
    (Printf.sprintf "exploit, benign, exploit on one image = fresh images (%s, %s)"
       (Backend.to_string backend) (Mode.to_string mode))
    (fun () ->
      List.iter
        (fun (c : Case.t) ->
          let warm_case = fresh c in
          List.iter
            (fun (label, input) ->
              let name = Printf.sprintf "%s %s" c.Case.program_name label in
              let cold_report, cold_jsonl = run ~backend ~mode (fresh c) input in
              let report, jsonl = run ~backend ~mode warm_case input in
              Util.check_string (name ^ ": report") cold_report report;
              Util.check_string (name ^ ": flow jsonl") cold_jsonl jsonl)
            [ ("exploit", c.Case.exploit); ("benign", c.Case.benign); ("exploit again", c.Case.exploit) ])
        cases)

let leak_repeat_test =
  tc "a second leak detection on the cached image repeats the first" (fun () ->
      List.iter
        (fun name ->
          let detect () =
            match Catalog.leak_start ~mode:Mode.shift_byte name with
            | Error e -> Alcotest.fail e
            | Ok start ->
                let lives = ref [] in
                let start i =
                  let l = start i in
                  lives := l :: !lives;
                  l
                in
                let v = Shift.Leak.detect ~count:3 ~start () in
                (* a variant that only followed the baseline's trace
                   keeps its length and first mismatch, not entries *)
                let observation l =
                  let hw = Option.get (Session.hwtrace l) in
                  if Option.is_some hw.Hwtrace.reference then
                    Printf.sprintf "%d accesses, mismatch %s" (Hwtrace.length hw)
                      (Option.fold ~none:"none" ~some:string_of_int (Hwtrace.first_mismatch hw))
                  else Shift.Leak.observation_digest hw
                in
                ( Shift.Results.to_string (Shift.Leak.verdict_to_json v),
                  List.map observation !lives )
          in
          let verdict, digests = detect () in
          let verdict', digests' = detect () in
          Util.check_string (name ^ ": verdict") verdict verdict';
          Alcotest.(check (list string)) (name ^ ": observation digests") digests digests')
        [ "aes-table"; "aes-ct" ])

let domains_test =
  tc "two domains on a fresh case get one image" (fun () ->
      let c = fresh (List.hd Attacks.all) in
      let build () = Case.image ~mode:Mode.shift_byte c in
      let d1 = Domain.spawn build and d2 = Domain.spawn build in
      let i1 = Domain.join d1 and i2 = Domain.join d2 in
      Util.check_bool "one image" true (i1 == i2))

let suites =
  [
    ("attacks.cache", List.map oracle_test Util.all_modes);
    ( "attacks.cache-runs",
      List.map warm_cold_test
        [
          (Backend.Nat, Mode.shift_byte, Attacks.all @ Attacks.multiproc);
          (Backend.Coproc, Mode.shift_byte, Attacks.all);
        ]
      @ [ leak_repeat_test; domains_test ] );
  ]
