(* The standard serve catalogue.  Every job here must mirror the
   corresponding one-shot CLI command's configuration exactly — the CI
   determinism gate cmp's a served report against the solo command's
   JSON, so any drift (policy, setup, fuel, trace options) breaks the
   build. *)

module Spec = Shift_workloads.Spec
module Policy = Shift_policy.Policy
module Case = Shift_attacks.Attack_case

let find_kernel name =
  match Spec.find name with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %S; try: %s" name
           (String.concat ", "
              (List.map (fun (k : Spec.kernel) -> k.Spec.name) Spec.all)))

let find_case name =
  match Shift_attacks.Attacks.find name with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown attack case %S; try: %s" name
           (String.concat ", "
              (List.map
                 (fun (c : Case.t) -> c.Case.program_name)
                 (Shift_attacks.Attacks.all @ Shift_attacks.Attacks.multiproc))))

(* the same config [shiftc run] and [shiftc batch] build per kernel;
   the mode is routed through [Session.effective_mode] exactly as the
   CLI does, so non-nat backends compile the uninstrumented guest *)
let kernel_job_of k ~mode ~size ~safe ~superblocks ~backend =
  let mode = Shift.Session.effective_mode ~backend mode in
  Shift.Fleet.job ~name:k.Spec.name
    ~config:
      (Shift.Session.Config.make ~policy:Policy.default
         ~setup:(Spec.setup ?size ~tainted:(not safe) k)
         ~superblocks ~backend ())
    (fun () -> Shift.Session.build ~backend ~mode k.Spec.program)

let kernel_job ~mode ~size ~safe ~superblocks ~backend name =
  Result.map
    (kernel_job_of ~mode ~size ~safe ~superblocks ~backend)
    (find_kernel name)

(* the same config [shiftc attack] builds through [Attack_case.config]:
   single-process cases get the classic shape, multi-process cases bring
   their process table and aux images along *)
let attack_job ~mode ~benign ~superblocks ~backend name =
  Result.map
    (fun (c : Case.t) ->
      let input = if benign then c.Case.benign else c.Case.exploit in
      Shift.Fleet.job ~name:c.Case.program_name
        ~config:(Case.config ~superblocks ~backend ~mode ~input c)
        (fun () -> Case.image ~backend ~mode c))
    (find_case name)

(* [shiftc trace]'s resolution order: attack case first, then kernel *)
let trace_job ~mode ~benign ~ring ~only ~superblocks ~backend name =
  let parse_kinds = function
    | None -> Ok None
    | Some s ->
        let names = String.split_on_char ',' s in
        let kinds = List.map Shift.Flowtrace.kind_of_string names in
        if List.mem None kinds then
          Error (Printf.sprintf "unknown event kind in %S" s)
        else Ok (Some (List.filter_map Fun.id kinds))
  in
  let resolve () =
    match Shift_attacks.Attacks.find name with
    | Some c ->
        let input = if benign then c.Case.benign else c.Case.exploit in
        Ok
          (fun trace ->
            Shift.Fleet.job ~name:c.Case.program_name
              ~config:(Case.config ~trace ~superblocks ~backend ~mode ~input c)
              (fun () -> Case.image ~backend ~mode c))
    | None -> (
        match find_kernel name with
        | Ok k ->
            Ok
              (fun trace ->
                let mode = Shift.Session.effective_mode ~backend mode in
                Shift.Fleet.job ~name:k.Spec.name
                  ~config:
                    (Shift.Session.Config.make ~policy:Policy.default
                       ~setup:(Spec.setup ~tainted:true k) ~trace ~superblocks
                       ~backend ())
                  (fun () -> Shift.Session.build ~backend ~mode k.Spec.program))
        | Error _ ->
            Error
              (Printf.sprintf "unknown image %S: not an attack case or kernel"
                 name))
  in
  Result.bind (resolve ()) (fun mk ->
      Result.map
        (fun only -> mk { Shift.Flowtrace.capacity = ring; only })
        (parse_kinds only))

(* [shiftc leak]'s variant starter: the attack-case config with the
   hardware trace on and flow tracing enabled (so a divergence can name
   the tainted bytes steering it), under variant [i]'s input.  Every
   variant starts from the case's cached image, as does every later
   detection on the same case, mode and backend. *)
let leak_start ?(superblocks = true) ?(backend = Shift_tracking.Backend.Nat)
    ~mode name =
  Result.bind (find_case name) (fun (c : Case.t) ->
      match c.Case.variants with
      | None ->
          Error
            (Printf.sprintf
               "case %S has no input variants; leak detection needs a case \
                from the side-channel suite (try: %s)"
               name
               (String.concat ", "
                  (List.map
                     (fun (c : Case.t) -> c.Case.program_name)
                     Shift_attacks.Attacks.sidechannel)))
      | Some variant ->
          let image = Case.image ~backend ~mode c in
          Ok
            (fun i ->
              Shift.Session.start
                ~config:
                  (Case.config ~trace:Shift.Flowtrace.default_options
                     ~hwtrace:true ~superblocks ~backend ~mode
                     ~input:(variant i) c)
                image))

let leak_job ~mode ~clause ~variants ~superblocks ~backend name =
  Result.map
    (fun start () -> Shift.Leak.detect ~clause ~count:variants ~start ())
    (leak_start ~superblocks ~backend ~mode name)

let batch_jobs ~mode ~size ~safe ~superblocks ~backend names =
  let kernels =
    match names with
    | [] -> List.map Result.ok Spec.all
    | names -> List.map find_kernel names
  in
  match
    List.partition_map
      (function Ok k -> Left k | Error e -> Right e)
      kernels
  with
  | _, e :: _ -> Error e
  | kernels, [] ->
      Ok
        (List.map (kernel_job_of ~mode ~size ~safe ~superblocks ~backend) kernels)

let standard =
  { Shift.Serve.kernel_job; attack_job; trace_job; batch_jobs; leak_job }
