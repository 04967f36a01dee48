package experiments

// The results test lives in package experiments_test because it imports
// internal/report, which imports this package. These hand it the golden
// check, which honours -update, the shared 16-processor runner and the
// directory of the committed results.
const ResultsDir = resultsDir

var (
	CheckGolden = checkGolden
	PaperRunner = paperRunner
)
