(* The standard job catalogue: the one place a request's names and
   options become sessions.  The serve daemon and shiftc's one-shot
   commands both resolve through [standard], so a served report equals
   the solo command's by construction. *)

module Spec = Shift_workloads.Spec
module Policy = Shift_policy.Policy
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks
module Protocol = Shift.Protocol
module Serve = Shift.Serve

let ( let* ) = Result.bind

let names f l = String.concat ", " (List.map f l)

let find_kernel name =
  match Spec.find name with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %S; try: %s" name
           (names (fun (k : Spec.kernel) -> k.Spec.name) Spec.all))

let find_case ~backend ~mode name =
  match Attacks.find ~backend ~mode name with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown attack case %S; try: %s" name
           (names (fun (c : Case.t) -> c.Case.program_name) (Attacks.findable mode)))

(* a kernel under the default policy reading its (tainted unless [safe])
   input file; the mode goes through [Session.effective_mode], so
   non-nat backends compile the uninstrumented guest *)
let kernel_job_of ?trace ?size ?(safe = false) ~mode ~superblocks ~backend k =
  let mode = Shift.Session.effective_mode ~backend mode in
  Shift.Fleet.job ~name:k.Spec.name
    ~config:
      (Shift.Session.Config.make ~policy:Policy.default
         ~setup:(Spec.setup ?size ~tainted:(not safe) k)
         ?trace ~superblocks ~backend ())
    (fun () -> Shift.Session.build ~backend ~mode k.Spec.program)

(* a case under its benign or exploit input: single-process cases get
   the classic shape, multi-process cases bring their process table and
   aux images along ([Attack_case.config]).  The tag coprocessor binds
   one address space, so it cannot follow a case that forks. *)
let case_job ?trace ~benign ~mode ~superblocks ~backend (c : Case.t) =
  if c.Case.multiproc <> None && backend = Shift_tracking.Backend.Coproc then
    Error
      (Printf.sprintf
         "case %S forks processes with address spaces of their own, but the \
          coproc backend tracks a single address space"
         c.Case.program_name)
  else
    let input = if benign then c.Case.benign else c.Case.exploit in
    Ok
      (Serve.Job
         (Shift.Fleet.job ~name:c.Case.program_name
            ~config:(Case.config ?trace ~superblocks ~backend ~mode ~input c)
            (fun () -> Case.image ~backend ~mode c)))

(* the leak detector's variant starter: the attack-case config with the
   hardware trace on and flow tracing enabled (so the re-run of a
   diverging pair can name the tainted bytes steering it), under
   variant [i]'s input.  Every variant starts from the case's cached
   image, as does every later detection on the same case, mode and
   backend. *)
let leak_start ?(superblocks = true) ?(backend = Shift_tracking.Backend.Nat)
    ~mode name =
  let* c = find_case ~backend ~mode name in
  match c.Case.variants with
  | None ->
      Error
        (Printf.sprintf
           "case %S has no input variants; leak detection needs a case from \
            the side-channel suite (try: %s)"
           name
           (names (fun (c : Case.t) -> c.Case.program_name) Attacks.sidechannel))
  | Some variant ->
      let image = Case.image ~backend ~mode c in
      Ok
        (fun i ->
          Shift.Session.start
            ~config:
              (Case.config ~trace:Shift.Flowtrace.default_options ~hwtrace:true
                 ~superblocks ~backend ~mode ~input:(variant i) c)
            image)

let standard : Serve.catalog = function
  | Protocol.Run { kernel; mode; size; safe; superblocks; backend } ->
      let* k = find_kernel kernel in
      Ok (Serve.Job (kernel_job_of ?size ~safe ~mode ~superblocks ~backend k))
  | Protocol.Attack { case; mode; benign; superblocks; backend } ->
      let* c = find_case ~backend ~mode case in
      case_job ~benign ~mode ~superblocks ~backend c
  | Protocol.Trace { image; mode; benign; ring; only; superblocks; backend } -> (
      let* only =
        match only with
        | None -> Ok None
        | Some s -> Result.map Option.some (Protocol.event_kinds s)
      in
      let trace = { Shift.Flowtrace.capacity = ring; only } in
      (* an attack case first, then a kernel *)
      match (find_case ~backend ~mode image, find_kernel image) with
      | Ok c, _ -> case_job ~trace ~benign ~mode ~superblocks ~backend c
      | Error _, Ok k -> Ok (Serve.Job (kernel_job_of ~trace ~mode ~superblocks ~backend k))
      | Error _, Error _ ->
          Error (Printf.sprintf "unknown image %S: not an attack case or kernel" image))
  | Protocol.Batch { kernels; mode; size; safe; retries; superblocks; backend } ->
      let* kernels =
        match kernels with
        | [] -> Ok Spec.all
        | kernels ->
            List.fold_right
              (fun name acc ->
                let* k = find_kernel name in
                Result.map (List.cons k) acc)
              kernels (Ok [])
      in
      Ok
        (Serve.Jobs
           {
             jobs = List.map (kernel_job_of ?size ~safe ~mode ~superblocks ~backend) kernels;
             retries;
           })
  | Protocol.Leak { case; mode; clause; variants; superblocks; backend } ->
      let* start = leak_start ~superblocks ~backend ~mode case in
      Ok (Serve.Probe { start; clause; variants })
  | Protocol.Status | Protocol.Drain -> Error "status and drain are not jobs"
