type severity = Error | Warning

type finding = {
  severity : severity;
  rule : string;
  subject : string;
  detail : string;
}

type report = {
  findings : finding list;
  checked : int;
  suppressed : int;
}

let error ~rule ~subject detail = { severity = Error; rule; subject; detail }
let warning ~rule ~subject detail = { severity = Warning; rule; subject; detail }

let report ?(checked = 0) ?(suppressed = 0) findings =
  { findings; checked; suppressed }

let empty = { findings = []; checked = 0; suppressed = 0 }

let merge a b =
  {
    findings = a.findings @ b.findings;
    checked = a.checked + b.checked;
    suppressed = a.suppressed + b.suppressed;
  }

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let errors = count Error
let warnings = count Warning

let exit_code ?(strict = false) r =
  if errors r > 0 then 1
  else if strict && r.findings <> [] then 1
  else 0

(* --- suppression pragmas -------------------------------------------- *)

(* [; analyze: allow <rule> [<subject>]] comment lines. *)
let pragmas_of_source src =
  let prefix = "; analyze: allow " in
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           let rest =
             String.sub line (String.length prefix)
               (String.length line - String.length prefix)
           in
           match String.split_on_char ' ' (String.trim rest) with
           | [ rule ] -> Some (rule, None)
           | rule :: prod :: _ -> Some (rule, Some prod)
           | [] -> None
         else None)

let suppressed_by src =
  let pragmas = pragmas_of_source src in
  fun f ->
    List.exists
      (fun (rule, prod) ->
        rule = f.rule
        && match prod with None -> true | Some p -> p = f.subject)
      pragmas

let to_json r =
  let open Psme_obs.Json in
  let finding f =
    Obj
      [
        ("severity", Str (match f.severity with Error -> "error" | Warning -> "warning"));
        ("rule", Str f.rule);
        ("subject", Str f.subject);
        ("detail", Str f.detail);
      ]
  in
  to_string
    (Obj
       [
         ("findings", List (List.map finding r.findings));
         ("errors", Int (errors r));
         ("warnings", Int (warnings r));
         ("checked", Int r.checked);
         ("suppressed", Int r.suppressed);
       ])

let pp_finding ppf f =
  Format.fprintf ppf "%s[%s] %s: %s"
    (match f.severity with Error -> "error" | Warning -> "warning")
    f.rule f.subject f.detail

let pp ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) r.findings;
  Format.fprintf ppf "%d finding(s) (%d error(s), %d warning(s)), %d checked"
    (List.length r.findings) (errors r) (warnings r) r.checked;
  if r.suppressed > 0 then Format.fprintf ppf ", %d suppressed" r.suppressed
