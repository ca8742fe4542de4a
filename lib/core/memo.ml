type ('k, 'v) t = {
  lock : Mutex.t;
  equal : 'k -> 'k -> bool;
  mutable entries : ('k * 'v) list;
}

let create ~equal = { lock = Mutex.create (); equal; entries = [] }

let find t key =
  List.find_map (fun (k, v) -> if t.equal key k then Some v else None) t.entries

let find_or_add t key compute =
  match Mutex.protect t.lock (fun () -> find t key) with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.protect t.lock (fun () ->
          match find t key with
          | Some first -> first
          | None ->
              t.entries <- (key, v) :: t.entries;
              v)
