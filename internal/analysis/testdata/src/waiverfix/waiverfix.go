// Package waiverfix is the waiver-parser regression fixture: the framework
// test runs a dummy analyzer that flags every function whose name starts
// with "Flagged", then asserts which findings the waivers below filter and
// which waiver comments are themselves reported.
package waiverfix

// FlaggedProperly carries a full waiver: tag, verb, and a reason. The
// finding must be filtered in Run and surface in Audit.
//
//lint:dummy allow the regression test wants this site waived with a reason
func FlaggedProperly() {}

// FlaggedBare carries a bare waiver — tag and verb but no reason. The
// waiver must NOT filter the finding, and must itself be reported.
//
//lint:dummy allow
func FlaggedBare() {}

//lint:dummy
// FlaggedMalformed sits under a waiver with no verb at all, which must be
// reported as malformed and must not filter the finding.
func FlaggedMalformed() {}

// Unneeded carries a reasoned waiver but raises no finding. The waiver
// suppresses nothing, so Run must report it as unused.
//
//lint:dummy allow nothing here is flagged, so this waiver is stale
func Unneeded() {}

// Unflagged is control: no finding, no waiver.
func Unflagged() {}
