type t = {
  lock : Mutex.t;
  probes : (string, unit -> float) Hashtbl.t;
}

let global = { lock = Mutex.create (); probes = Hashtbl.create 16 }

let set_probe t name f =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.probes name f)

type snapshot = (string * float) list

let snapshot t =
  let rows = ref [] in
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter (fun name f -> rows := (name, f ()) :: !rows) t.probes);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let pp ppf (snap : snapshot) =
  List.iter
    (fun (name, v) ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Format.fprintf ppf "%-44s %12.0f@." name v
      else Format.fprintf ppf "%-44s %12.3f@." name v)
    snap

let to_json (snap : snapshot) =
  Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap))
