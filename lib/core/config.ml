module Policy = Shift_policy.Policy
module World = Shift_os.World
module Backend = Shift_tracking.Backend

type threading =
  | Single
  | Threads of { quantum : int option }
  | Processes of { quantum : int option; comm : string option }

type t = {
  policy : Policy.t;
  io_cost : World.io_cost;
  fuel : int;
  setup : World.t -> unit;
  threading : threading;
  trace : Shift_machine.Flowtrace.options option;
  hwtrace : bool;
  superblocks : bool;
  backend : Backend.t;
  images : (string * Shift_compiler.Image.t) list;
  coproc_capacity : int option;
  coproc_drain_rate : int option;
  coproc_stall_penalty : int option;
}

let make ?(policy = Policy.default) ?(io_cost = World.default_io_cost)
    ?(fuel = 2_000_000_000) ?(setup = fun _ -> ()) ?(threading = Single) ?trace
    ?(hwtrace = false) ?(superblocks = true) ?(backend = Backend.Nat)
    ?(images = []) ?coproc_capacity ?coproc_drain_rate ?coproc_stall_penalty ()
    =
  {
    policy;
    io_cost;
    fuel;
    setup;
    threading;
    trace;
    hwtrace;
    superblocks;
    backend;
    images;
    coproc_capacity;
    coproc_drain_rate;
    coproc_stall_penalty;
  }

let default = make ()
