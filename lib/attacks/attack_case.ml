type t = {
  cve : string;
  program_name : string;
  language : string;
  attack_type : string;
  detection_policies : string;
  expected_policy : string;
  program : Ir.program;
  policy : Shift_policy.Policy.t;
  benign : Shift_os.World.t -> unit;
  exploit : Shift_os.World.t -> unit;
  provenance : (string * int * int) option;
  images : (string * Ir.program) list;
  multiproc : string option;
  variants : (int -> Shift_os.World.t -> unit) option;
  cache : Shift.Session.image_cache;
}

(* Every front end (CLI, serve catalogue, tests) builds its session
   from these helpers so a case's machine shape cannot drift between
   entry points: a single-process case produces exactly the config it
   always did, a multi-process case brings its process personality and
   aux images along. *)

let config ?trace ?hwtrace ?(superblocks = true)
    ?(backend = Shift_tracking.Backend.Nat) ~mode ~input (c : t) =
  let threading =
    match c.multiproc with
    | None -> Shift.Session.Config.Single
    | Some comm ->
        Shift.Session.Config.Processes { quantum = None; comm = Some comm }
  in
  let images =
    List.map
      (fun (name, prog) -> (name, Shift.Session.build ~cache:c.cache ~backend ~mode prog))
      c.images
  in
  Shift.Session.Config.make ~policy:c.policy ~setup:input ~threading ?trace
    ?hwtrace ~superblocks ~backend ~images ()

let image ?(backend = Shift_tracking.Backend.Nat) ~mode (c : t) =
  Shift.Session.build ~cache:c.cache ~backend ~mode c.program

let run ?trace ?superblocks ?backend ~mode ~input (c : t) =
  Shift.Session.exec
    ~config:(config ?trace ?superblocks ?backend ~mode ~input c)
    (image ?backend ~mode c)
